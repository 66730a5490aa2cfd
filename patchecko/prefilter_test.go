package patchecko

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"testing"

	"repro/internal/binimg"
	"repro/internal/compid"
	"repro/internal/corpus"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/vulndb"
)

// prefilterFleet extends a device's firmware with generated vendor libraries
// whose code profile diverges from the reference corpus (bigger function
// bodies, rotating optimization levels) — the fleet shape where component
// identification pays: most of the grid is vendor code hosting no CVE.
func prefilterFleet(t *testing.T, fw *Firmware, n int) *Firmware {
	t.Helper()
	arch, err := isa.ByName(fw.Arch)
	if err != nil {
		t.Fatal(err)
	}
	extra, err := corpus.FleetVendorImages(arch, n, 70000)
	if err != nil {
		t.Fatal(err)
	}
	fleet := *fw
	fleet.Images = append(append([]*binimg.Image{}, fw.Images...), extra...)
	return &fleet
}

// prefilterRecall measures the keep decision against the firmware's held-out
// ground truth: the fraction of true (CVE, host image) cells the prefilter
// keeps. The engine contract pins it at exactly 1.0 — a prefilter that drops
// a ground-truth cell is wrong, not approximate.
func prefilterRecall(t *testing.T, an *Analyzer, fw *Firmware) float64 {
	t.Helper()
	prepared, err := PrepareImages(context.Background(), fw.Images, 4)
	if err != nil {
		t.Fatal(err)
	}
	byLib := make(map[string]*PreparedImage)
	for _, p := range prepared {
		if p != nil {
			byLib[p.Image.LibName] = p
		}
	}
	kept := 0
	for _, ct := range fw.CVEs {
		p, ok := byLib[ct.Library]
		if !ok {
			t.Fatalf("ground-truth library %s did not prepare", ct.Library)
		}
		if an.PrefilterKeep(p, ct.ID) {
			kept++
		} else {
			t.Errorf("prefilter pruned ground-truth cell (%s, %s)", ct.Library, ct.ID)
		}
	}
	if len(fw.CVEs) == 0 {
		t.Fatal("firmware has no ground-truth CVE cells; recall is vacuous")
	}
	return float64(kept) / float64(len(fw.CVEs))
}

// TestPrefilterRecall is the prefilter's measured-recall lockdown, on every
// evaluation device plus the vendor-heavy fleet:
//
//   - recall over ground-truth CVE cells is exactly 1.0;
//   - the prefiltered scan's normalized Report is byte-identical to the full
//     grid's (a pruned cell is only ever one the full grid scores as a
//     no-match);
//   - the grid actually shrinks on every device, and on the fleet it shrinks
//     by at least the 2x acceptance floor.
func TestPrefilterRecall(t *testing.T) {
	model, db, thingFw := goldenFixtures(t)
	fixtures := []struct {
		name         string
		fw           *Firmware
		minReduction float64
	}{
		{"thingos", thingFw, 1},
		{"pebble2xl", buildDeviceFw(t, Pebble2XL), 1},
		{"fruitos", buildDeviceFw(t, corpus.FruitOS), 1},
		{"fleet", prefilterFleet(t, thingFw, 12), 2},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			var raws [][]byte
			var pruned, full int
			for _, prefilter := range []bool{true, false} {
				an := NewAnalyzer(model, db)
				an.Workers = 4
				an.Prefilter = prefilter
				report, err := an.ScanFirmware(context.Background(), fx.fw)
				if err != nil {
					t.Fatal(err)
				}
				if prefilter {
					recall := prefilterRecall(t, an, fx.fw)
					if recall != 1.0 {
						t.Errorf("ground-truth recall %.4f, want exactly 1.0", recall)
					}
					healthy := report.Stats.Images - report.Stats.ImagesFailed
					pruned = report.Stats.CellsPruned
					full = report.Stats.CVEs * healthy * 2
					if pruned == 0 {
						t.Error("prefilter pruned no cells")
					}
				} else if report.Stats.CellsPruned != 0 {
					t.Errorf("full grid reports %d pruned cells", report.Stats.CellsPruned)
				}
				normalizeReport(report)
				raw, err := json.Marshal(report)
				if err != nil {
					t.Fatal(err)
				}
				raws = append(raws, raw)
			}
			if !bytes.Equal(raws[0], raws[1]) {
				t.Error("prefiltered report bytes diverge from the full grid")
			}
			reduction := float64(full) / float64(full-pruned)
			t.Logf("grid %d cells, pruned %d, reduction %.2fx, recall 1.0", full, pruned, reduction)
			if reduction < fx.minReduction {
				t.Errorf("grid reduction %.2fx below the %.0fx floor", reduction, fx.minReduction)
			}
		})
	}
}

// prunedCells makes every keep decision of a scan of prepared and counts
// the grid cells the prefilter leaves out: two query modes per pruned
// (CVE, image) pair, except in rows it would empty, which the scan's rescue
// pass runs in full.
func prunedCells(an *Analyzer, prepared []*PreparedImage, ids []string) int {
	cells := 0
	for _, id := range ids {
		healthy, pruned := 0, 0
		for _, p := range prepared {
			if p == nil {
				continue
			}
			healthy++
			if !an.PrefilterKeep(p, id) {
				pruned++
			}
		}
		if pruned < healthy {
			cells += 2 * pruned
		}
	}
	return cells
}

func buildDeviceFw(t *testing.T, dev Device) *Firmware {
	t.Helper()
	fw, err := BuildFirmware(dev, ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

// prefilterArtifact is the "prefilter" object merged into BENCH_static.json:
// the keep decisions' cost next to what they remove from the grid.
type prefilterArtifact struct {
	Benchmark string         `json:"benchmark"`
	Rows      []prefilterRow `json:"rows"`
	Costs     prefilterCosts `json:"costs"`
}

type prefilterRow struct {
	Fixture     string `json:"fixture"`
	Images      int    `json:"images"`
	CVEs        int    `json:"cves"`
	GridCells   int    `json:"grid_cells"`
	CellsPruned int    `json:"cells_pruned"`
	// Reduction is full-grid cells over scheduled cells; the fleet row's
	// acceptance floor is 2x.
	Reduction float64 `json:"reduction"`
	// Recall over ground-truth (CVE, host image) cells; the contract pins
	// exactly 1.0.
	Recall float64 `json:"recall"`
}

type prefilterCosts struct {
	// FingerprintNsPerImage is the one-time per-image extraction cost.
	FingerprintNsPerImage int64 `json:"fingerprint_ns_per_image"`
	// SignatureNsPerCVE is the one-time per-(CVE, arch) derivation cost,
	// memoized for the life of the analyzer.
	SignatureNsPerCVE int64 `json:"signature_ns_per_cve"`
	// KeepMatrixNs is the warm per-scan cost of every keep decision.
	KeepMatrixNs int64 `json:"keep_matrix_ns"`
}

// TestWritePrefilterBenchArtifact measures the prefilter's grid reduction
// and recall on the device and fleet fixtures plus its own costs, and
// merges the "prefilter" object into the artifact at PATCHECKO_BENCH_OUT.
// Skipped when the variable is unset; `make bench-static` opts in after the
// detector writer has run.
func TestWritePrefilterBenchArtifact(t *testing.T) {
	out := os.Getenv("PATCHECKO_BENCH_OUT")
	if out == "" {
		t.Skip("PATCHECKO_BENCH_OUT not set")
	}
	ids := make([]string, 0, 25)
	for _, pair := range minic.CVEs() {
		ids = append(ids, pair.ID)
	}
	art := prefilterArtifact{
		Benchmark: "internal/compid component prefilter: keep-matrix grid reduction and " +
			"ground-truth recall on the seed-42 tiny devices and the vendor-heavy fleet",
	}

	fixtures := []struct {
		name string
		fw   *Firmware
	}{
		{"thingos", buildDeviceFw(t, ThingOS)},
		{"pebble2xl", buildDeviceFw(t, Pebble2XL)},
		{"fruitos", buildDeviceFw(t, corpus.FruitOS)},
	}
	fixtures = append(fixtures, struct {
		name string
		fw   *Firmware
	}{"fleet", prefilterFleet(t, fixtures[0].fw, 12)})

	var fleetPrepared []*PreparedImage
	for _, fx := range fixtures {
		an := &Analyzer{Prefilter: true}
		prepared, err := PrepareImages(context.Background(), fx.fw.Images, 4)
		if err != nil {
			t.Fatal(err)
		}
		healthy := 0
		for _, p := range prepared {
			if p != nil {
				healthy++
			}
		}
		pruned := prunedCells(an, prepared, ids)
		full := len(ids) * healthy * 2
		row := prefilterRow{
			Fixture:     fx.name,
			Images:      healthy,
			CVEs:        len(ids),
			GridCells:   full,
			CellsPruned: pruned,
			Reduction:   float64(full) / float64(full-pruned),
			Recall:      prefilterRecall(t, an, fx.fw),
		}
		art.Rows = append(art.Rows, row)
		if fx.name == "fleet" {
			fleetPrepared = prepared
		}
		t.Logf("%s: grid %d, pruned %d, reduction %.2fx, recall %.3f",
			row.Fixture, row.GridCells, row.CellsPruned, row.Reduction, row.Recall)
	}

	// Costs, on the fleet fixture: cold fingerprint extraction per image,
	// cold signature derivation per CVE, and one scan's warm keep decisions.
	fleet := fixtures[len(fixtures)-1].fw
	fpRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range fleetPrepared {
				compid.Extract(p.Image, p.Dis, p.Vecs)
			}
		}
	})
	sigRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			an := &Analyzer{Prefilter: true}
			for _, id := range ids {
				an.signatureFor(id, fleet.Arch)
			}
		}
	})
	warm := &Analyzer{Prefilter: true}
	prunedCells(warm, fleetPrepared, ids)
	keepRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prunedCells(warm, fleetPrepared, ids)
		}
	})
	art.Costs = prefilterCosts{
		FingerprintNsPerImage: fpRes.NsPerOp() / int64(len(fleetPrepared)),
		SignatureNsPerCVE:     sigRes.NsPerOp() / int64(len(ids)),
		KeepMatrixNs:          keepRes.NsPerOp(),
	}
	t.Logf("fingerprint %d ns/image, signature %d ns/cve, warm keep decisions %d ns",
		art.Costs.FingerprintNsPerImage, art.Costs.SignatureNsPerCVE, art.Costs.KeepMatrixNs)

	for _, row := range art.Rows {
		if row.Recall != 1.0 {
			t.Errorf("%s: recall %.4f, want exactly 1.0", row.Fixture, row.Recall)
		}
		if row.Fixture == "fleet" && row.Reduction < 2 {
			t.Errorf("fleet grid reduction %.2fx below the 2x acceptance floor", row.Reduction)
		}
	}

	// Merge into the detector-written artifact, not over it.
	merged := make(map[string]json.RawMessage)
	if prev, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(prev, &merged); err != nil {
			t.Fatalf("existing artifact %s is not a JSON object: %v", out, err)
		}
	}
	rawPre, err := json.Marshal(art)
	if err != nil {
		t.Fatal(err)
	}
	merged["prefilter"] = rawPre
	raw, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPrefilterRescue pins the rescue pass, the one path that degrades a
// prefiltered row: a row with no kept cell that answered runs its pruned
// cells after all, counts one prefilter_degraded, and reports exactly what
// the full grid reports. Two scans reach it:
//
//   - a one-image firmware (the golden fixture's libstagefright), where
//     every CVE the image does not host a component of has its whole row
//     pruned, so nothing may stay pruned; its database adds one custom
//     advisory, which has no signature and so keeps its row;
//   - the golden firmware with a worker panic armed on every kept cell of
//     one CVE row, whose pruned cells must then run.
//
// Both must emit exactly one prefilter event per row, account every pruned
// cell in it (cells_pruned == 2 × Σ Pruned) and every degrade in
// prefilter_degraded, and keep their counters identical at workers 1/4/16.
func TestPrefilterRescue(t *testing.T) {
	model, goldenDB, fw := goldenFixtures(t)
	const (
		rescueReason = "no kept cell answered; ran pruned cells"
		noSigReason  = "no signature; kept full row"
		advisory     = "ADV-0001"
	)
	withAdvisory := &DB{Entries: append([]*vulndb.Entry(nil), goldenDB.Entries...)}
	if err := AddCVE(withAdvisory, CustomCVE{
		ID:         advisory,
		Library:    "libcustom",
		FuncName:   "decode",
		Vulnerable: "func decode(p, n) { i = 0; s = 0; while (i <= n) { s = s + p[i]; i = i + 1; } return s; }",
		Patched:    "func decode(p, n) { i = 0; s = 0; while (i < n) { s = s + p[i]; i = i + 1; } return s; }",
	}); err != nil {
		t.Fatal(err)
	}

	var lib *binimg.Image
	for _, im := range fw.Images {
		if im.LibName == "libstagefright" {
			lib = im
		}
	}
	if lib == nil {
		t.Fatal("golden firmware has no libstagefright image")
	}
	oneImage := *fw
	oneImage.Images = []*binimg.Image{lib}

	prepared, err := PrepareImages(context.Background(), fw.Images, 4)
	if err != nil {
		t.Fatal(err)
	}
	keeper := NewAnalyzer(model, goldenDB)
	var panicCVE string
	var panicLibs []string
	emptied := 0
	for _, id := range goldenDB.IDs() {
		var kept []string
		for _, p := range prepared {
			if keeper.PrefilterKeep(p, id) {
				kept = append(kept, p.Image.LibName)
			} else if p.Image.LibName == lib.LibName {
				emptied++
			}
		}
		if panicCVE == "" && len(kept) < len(prepared) {
			panicCVE, panicLibs = id, kept
		}
	}
	if emptied == 0 || panicCVE == "" {
		t.Fatalf("fixture reaches no rescue: %d rows emptied on %s, partly pruned row %q",
			emptied, lib.LibName, panicCVE)
	}

	// scan runs one configuration and checks the per-row event accounting,
	// returning the normalized report bytes, the counters and the rescued
	// row count.
	scan := func(t *testing.T, fw *Firmware, db *DB, workers int, prefilter bool) ([]byte, map[string]int64, int) {
		t.Helper()
		sink := obs.NewTraced(0)
		an := NewAnalyzer(model, db)
		an.Workers = workers
		an.Prefilter = prefilter
		an.Obs = sink
		report, err := an.ScanFirmware(context.Background(), fw)
		if err != nil {
			t.Fatal(err)
		}
		events := make(map[string]int)
		sumPruned, rescued, degraded := 0, 0, 0
		for _, ev := range sink.Events() {
			if ev.Kind != obs.EvPrefilter {
				continue
			}
			events[ev.CVE]++
			sumPruned += ev.Pruned
			if ev.Reason != "" {
				degraded++
				if ev.Pruned != 0 {
					t.Errorf("workers=%d: degraded row %s still reports %d pruned images", workers, ev.CVE, ev.Pruned)
				}
			}
			switch {
			case ev.CVE == advisory:
				if ev.Reason != noSigReason {
					t.Errorf("workers=%d: %s reason %q, want %q", workers, advisory, ev.Reason, noSigReason)
				}
			case ev.Reason == rescueReason:
				rescued++
			}
		}
		if prefilter {
			for _, id := range db.IDs() {
				if events[id] != 1 {
					t.Errorf("workers=%d: %d prefilter events for %s, want exactly 1", workers, events[id], id)
				}
			}
		} else if len(events) != 0 {
			t.Errorf("workers=%d: %d prefilter events with the prefilter off", workers, len(events))
		}
		if got := sink.Get(obs.CtrCellsPruned); got != int64(2*sumPruned) || got != int64(report.Stats.CellsPruned) {
			t.Errorf("workers=%d: cells_pruned %d, Stats.CellsPruned %d, want both 2 × Σ Pruned = %d",
				workers, got, report.Stats.CellsPruned, 2*sumPruned)
		}
		if got := sink.Get(obs.CtrPrefilterDegraded); got != int64(degraded) {
			t.Errorf("workers=%d: prefilter_degraded %d, want %d degraded rows", workers, got, degraded)
		}
		normalizeReport(report)
		raw, err := json.Marshal(report)
		if err != nil {
			t.Fatal(err)
		}
		return raw, sink.Counters(), rescued
	}

	check := func(t *testing.T, fw *Firmware, db *DB, wantRescued int) {
		full, _, _ := scan(t, fw, db, 4, false)
		var base map[string]int64
		for _, workers := range []int{1, 4, 16} {
			raw, counters, rescued := scan(t, fw, db, workers, true)
			if rescued != wantRescued {
				t.Errorf("workers=%d: %d rows rescued, want %d", workers, rescued, wantRescued)
			}
			if !bytes.Equal(raw, full) {
				t.Errorf("workers=%d: prefiltered report bytes diverge from the full grid", workers)
			}
			if base == nil {
				base = counters
				continue
			}
			for name, want := range base {
				if got := counters[name]; got != want {
					t.Errorf("workers=%d: counter %s = %d, want %d (workers=1)", workers, name, got, want)
				}
			}
		}
	}

	t.Run("one-image", func(t *testing.T) {
		check(t, &oneImage, withAdvisory, emptied)
	})
	t.Run("kept-cells-fail", func(t *testing.T) {
		for _, libName := range panicLibs {
			for _, mode := range []QueryMode{QueryVulnerable, QueryPatched} {
				disarm := faultinject.Arm(faultinject.ScanPanic, libName+"|"+panicCVE+"|"+mode.String(),
					errors.New("injected worker panic"))
				defer disarm()
			}
		}
		check(t, fw, goldenDB, 1)
	})
}
