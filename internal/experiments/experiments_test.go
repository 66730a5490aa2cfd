package experiments

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/patchecko"
)

var (
	suiteOnce sync.Once
	suite     *Suite
	suiteErr  error
)

func testSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() {
		suite, suiteErr = NewSuite(context.Background(), Config{Scale: corpus.ScaleSmall, Seed: 42})
	})
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suite
}

func TestFig8Shape(t *testing.T) {
	s := testSuite(t)
	r := s.Fig8()
	if len(r.Epochs) == 0 {
		t.Fatal("no training history")
	}
	first, last := r.Epochs[0], r.Epochs[len(r.Epochs)-1]
	if last.TrainLoss >= first.TrainLoss {
		t.Errorf("training loss did not decrease: %.4f -> %.4f", first.TrainLoss, last.TrainLoss)
	}
	if last.ValAcc < 0.8 {
		t.Errorf("final validation accuracy %.3f < 0.8", last.ValAcc)
	}
	if r.TestAcc < 0.8 {
		t.Errorf("test accuracy %.3f < 0.8", r.TestAcc)
	}
	if r.TestAUC < 0.85 {
		t.Errorf("test AUC %.3f < 0.85", r.TestAUC)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Fig. 8") {
		t.Error("render missing header")
	}
}

func TestFig7Shape(t *testing.T) {
	s := testSuite(t)
	r, err := s.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 25 || len(r.Devices) != 2 {
		t.Fatalf("Fig7 has %d rows / %d devices", len(r.Rows), len(r.Devices))
	}
	var anyFP bool
	for _, row := range r.Rows {
		for _, d := range r.Devices {
			for _, cell := range row.Cells[d] {
				if rate := cell.Rate(); rate < 0 || rate > 1 {
					t.Errorf("%s/%s: FP rate %v out of range", row.CVE, d, rate)
				}
				if cell.FalsePositives > 0 {
					anyFP = true
				}
			}
		}
	}
	if !anyFP {
		t.Error("static stage produced no false positives at all — implausible for a similarity model")
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "CVE-2018-9412") {
		t.Error("render missing rows")
	}
}

func TestTable3CaseStudy(t *testing.T) {
	s := testSuite(t)
	r, err := s.Table3(context.Background(), corpus.ThingOS.Name, "CVE-2018-9412")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 2 {
		t.Fatalf("only %d profile rows", len(r.Rows))
	}
	last := r.Rows[len(r.Rows)-1]
	if last.Label != "Vulnerable function" {
		t.Errorf("last row should be the reference, got %s", last.Label)
	}
	if last.Features[5] == 0 { // F6: instruction_num
		t.Error("reference executed zero instructions")
	}
	// EXPERIMENTS.md: the true match's profile is exactly the reference's.
	_, truth, err := s.hostImage(corpus.ThingOS.Name, "CVE-2018-9412")
	if err != nil {
		t.Fatal(err)
	}
	trueLabel := fmt.Sprintf("candidate_%x", truth.Addr)
	found := false
	for _, row := range r.Rows[:len(r.Rows)-1] {
		if row.Label == trueLabel {
			found = true
			if row.Features != last.Features {
				t.Errorf("true match %s profile %v, want the reference's %v", trueLabel, row.Features, last.Features)
			}
		}
	}
	if !found {
		t.Errorf("true match %s is not a Table III row", trueLabel)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "F21") {
		t.Error("render missing feature columns")
	}
}

func TestTables4And5Rankings(t *testing.T) {
	s := testSuite(t)
	for _, mode := range []patchecko.QueryMode{patchecko.QueryVulnerable, patchecko.QueryPatched} {
		r, err := s.Ranking(context.Background(), corpus.ThingOS.Name, "CVE-2018-9412", mode, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) == 0 {
			t.Fatalf("%v: empty ranking", mode)
		}
		if len(r.Rows) > 10 {
			t.Errorf("%v: topN not honoured", mode)
		}
		for i := 1; i < len(r.Rows); i++ {
			if r.Rows[i].Sim < r.Rows[i-1].Sim {
				t.Errorf("%v: ranking not ascending", mode)
			}
		}
	}
	// The vulnerable-query top hit must be the true function (ThingOS
	// carries the vulnerable version): the paper's Table IV shows
	// candidate_29 == removeUnsynchronization at the top.
	r, err := s.Ranking(context.Background(), corpus.ThingOS.Name, "CVE-2018-9412", patchecko.QueryVulnerable, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0].GroundTruth != "removeUnsynchronization" {
		t.Errorf("top-ranked ground truth = %s, want removeUnsynchronization", r.Rows[0].GroundTruth)
	}
}

func TestTable6And7Pipeline(t *testing.T) {
	s := testSuite(t)
	for _, mode := range []patchecko.QueryMode{patchecko.QueryVulnerable, patchecko.QueryPatched} {
		r, err := s.Pipeline(context.Background(), corpus.ThingOS.Name, mode)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) != 25 {
			t.Fatalf("%v: %d rows", mode, len(r.Rows))
		}
		found, top3 := 0, 0
		for _, row := range r.Rows {
			if row.TP+row.FP+row.TN+row.FN != row.Total {
				t.Errorf("%s: confusion cells don't sum to total", row.CVE)
			}
			if row.Execution > row.TP+row.FP {
				t.Errorf("%s: more executions than candidates", row.CVE)
			}
			if row.Ranking > 0 {
				found++
				if row.Ranking <= 3 {
					top3++
				}
			}
		}
		if found < 15 {
			t.Errorf("%v: true function located for only %d/25 CVEs", mode, found)
		}
		if float64(top3) < 0.9*float64(found) {
			t.Errorf("%v: top-3 rate %d/%d below 90%% (paper: 100%%)", mode, top3, found)
		}
		var buf bytes.Buffer
		r.Render(&buf)
		if !strings.Contains(buf.String(), "average FP rate") {
			t.Error("render missing summary")
		}
	}
}

func TestTable8Verdicts(t *testing.T) {
	s := testSuite(t)
	r, err := s.Verdicts(context.Background(), corpus.ThingOS.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 25 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	if acc := r.Accuracy(); acc < 0.8 {
		t.Errorf("patch detection accuracy %.2f < 0.8 (paper: 0.96)", acc)
	}
	// The one-integer patch is the engine's expected blind spot: ThingOS is
	// vulnerable but the tie-break reports patched, as in Table VIII.
	for _, row := range r.Rows {
		if row.CVE != "CVE-2018-9470" {
			continue
		}
		if row.GroundTruth {
			t.Fatal("fixture: 9470 should be unpatched on ThingOS")
		}
		if row.Found && !row.Reported {
			t.Error("CVE-2018-9470 was classified correctly — the minute-patch blind spot disappeared")
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "patch detection accuracy") {
		t.Error("render missing accuracy line")
	}
}

func TestHeadlines(t *testing.T) {
	s := testSuite(t)
	h, err := s.Headlines(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.TestAccuracy < 0.8 || h.TestAUC < 0.85 {
		t.Errorf("model headline metrics too low: %+v", h)
	}
	if h.Top3Rate < 0.85 {
		t.Errorf("top-3 rate %.2f below 0.85", h.Top3Rate)
	}
	if h.PatchAccuracy < 0.8 {
		t.Errorf("patch accuracy %.2f below 0.8", h.PatchAccuracy)
	}
}

func TestAblations(t *testing.T) {
	s := testSuite(t)
	dist, err := s.AblateDistance(context.Background(), corpus.ThingOS.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist.Rows) != 4 {
		t.Fatalf("distance ablation has %d rows", len(dist.Rows))
	}
	for _, row := range dist.Rows {
		if row.Found == 0 {
			t.Errorf("%s: nothing rankable", row.Config)
		}
	}
	envs, err := s.AblateEnvironments(context.Background(), corpus.ThingOS.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(envs.Rows) == 0 {
		t.Fatal("environment ablation empty")
	}
	hyb, err := s.AblateHybrid(context.Background(), corpus.ThingOS.Name)
	if err != nil {
		t.Fatal(err)
	}
	pruned := 0
	for _, row := range hyb.Rows {
		if row.Survivors > row.Candidates {
			t.Errorf("%s: survivors exceed candidates", row.CVE)
		}
		if row.Survivors < row.Candidates {
			pruned++
		}
	}
	if pruned == 0 {
		t.Error("dynamic validation pruned nothing across 25 CVEs — implausible")
	}
	var buf bytes.Buffer
	dist.Render(&buf)
	envs.Render(&buf)
	hyb.Render(&buf)
	if buf.Len() == 0 {
		t.Error("ablation renders empty")
	}
}

// TestProfileTranscript pins, byte for byte, every render built from
// per-environment dynamic profiles on the small-scale seed-42 suite: the
// Table III case study and the distance, environment-count and hybrid
// ablations. None of them prints a timing column. An intended output change
// is regenerated with
//
//	PATCHECKO_UPDATE_GOLDEN=1 go test ./internal/experiments/ -run TestProfileTranscript
func TestProfileTranscript(t *testing.T) {
	s := testSuite(t)
	ctx := context.Background()
	dev := corpus.ThingOS.Name
	var buf bytes.Buffer
	t3, err := s.Table3(ctx, dev, "CVE-2018-9412")
	if err != nil {
		t.Fatal(err)
	}
	t3.Render(&buf)
	for _, ablate := range []func(context.Context, string) (AblationResult, error){s.AblateDistance, s.AblateEnvironments} {
		r, err := ablate(ctx, dev)
		if err != nil {
			t.Fatal(err)
		}
		r.Render(&buf)
	}
	hyb, err := s.AblateHybrid(ctx, dev)
	if err != nil {
		t.Fatal(err)
	}
	hyb.Render(&buf)

	path := filepath.Join("testdata", "profile_transcript.txt")
	if os.Getenv("PATCHECKO_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing transcript (run with PATCHECKO_UPDATE_GOLDEN=1 to create it): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("profile renders diverge from %s:\n got:\n%s\nwant:\n%s", path, buf.Bytes(), want)
	}
}

func TestBaselineComparison(t *testing.T) {
	s := testSuite(t)
	r, err := s.Baselines(corpus.ThingOS.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("%d scorer rows, want 3", len(r.Rows))
	}
	byName := make(map[string]BaselineRow, len(r.Rows))
	for _, row := range r.Rows {
		byName[row.Scorer] = row
		if row.Total == 0 {
			t.Fatalf("%s: no rankable CVEs", row.Scorer)
		}
		if row.Top1 > row.Top3 || row.Top3 > row.Top10 || row.Top10 > row.Total {
			t.Errorf("%s: inconsistent rank counters %+v", row.Scorer, row)
		}
	}
	det := byName["patchecko-detector"]
	for _, name := range []string{"bindiff-bipartite", "graph-embedding"} {
		if byName[name].Top3 > det.Top3 {
			t.Errorf("%s beats the trained detector on top-3 (%d vs %d) — the paper's comparison inverts",
				name, byName[name].Top3, det.Top3)
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "patchecko-detector") {
		t.Error("render missing rows")
	}
}

func TestFeatureGroupAblation(t *testing.T) {
	s := testSuite(t)
	r, err := s.AblateFeatureGroups()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(r.Rows))
	}
	byGroup := make(map[string]FeatureGroupRow)
	for _, row := range r.Rows {
		byGroup[row.Group] = row
		if row.TestAcc < 0.5 || row.TestAUC < 0.5 {
			t.Errorf("%s: worse than chance (%+v)", row.Group, row)
		}
	}
	full := byGroup["full"]
	for _, g := range []string{"instruction-mix", "cfg-shape"} {
		if byGroup[g].TestAcc > full.TestAcc+0.02 {
			t.Errorf("%s alone beats the full feature set by >2%% (%.3f vs %.3f)",
				g, byGroup[g].TestAcc, full.TestAcc)
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "cfg-shape") {
		t.Error("render missing groups")
	}
}

func TestObfuscationAblation(t *testing.T) {
	s := testSuite(t)
	r, err := s.AblateObfuscation()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Clean.Rows) != len(r.Obfuscated.Rows) || len(r.Clean.Rows) != 3 {
		t.Fatalf("row mismatch: %d clean vs %d obf", len(r.Clean.Rows), len(r.Obfuscated.Rows))
	}
	for i := range r.Clean.Rows {
		if r.Clean.Rows[i].Scorer != r.Obfuscated.Rows[i].Scorer {
			t.Fatal("scorer rows misaligned")
		}
		if r.Obfuscated.Rows[i].Total == 0 {
			t.Errorf("%s: obfuscated firmware not rankable", r.Clean.Rows[i].Scorer)
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "obf_top3") {
		t.Error("render missing columns")
	}
	t.Log("\n" + buf.String())
}

// TestPrefilterAblation locks the prefilter ablation's contract: every
// fixture keeps all ground-truth cells (recall exactly 1.0), prunes a
// non-trivial slice of the grid, stays byte-identical to the full scan, and
// the fleet fixture clears the 2x grid-reduction floor DESIGN.md records.
func TestPrefilterAblation(t *testing.T) {
	ctx := context.Background()
	s, err := NewSuite(ctx, Config{Scale: corpus.ScaleTiny, Seed: 42, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.AblatePrefilter(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(Devices()) + 1; len(r.Rows) != want {
		t.Fatalf("got %d rows, want %d (devices + fleet)", len(r.Rows), want)
	}
	var fleet *PrefilterRow
	for i := range r.Rows {
		row := &r.Rows[i]
		if row.Recall != 1.0 {
			t.Errorf("%s: ground-truth recall %.3f, want exactly 1.0", row.Fixture, row.Recall)
		}
		if !row.Identical {
			t.Errorf("%s: pruned report is not byte-identical to the full grid", row.Fixture)
		}
		if row.Pruned <= 0 {
			t.Errorf("%s: prefilter pruned nothing (grid %d)", row.Fixture, row.GridCells)
		}
		if row.GridCells <= 0 || row.Pruned >= row.GridCells {
			t.Errorf("%s: implausible grid accounting: %d pruned of %d", row.Fixture, row.Pruned, row.GridCells)
		}
		if strings.HasPrefix(row.Fixture, "fleet-") {
			fleet = row
		}
	}
	if fleet == nil {
		t.Fatal("no fleet fixture row")
	}
	if fleet.Reduction < 2 {
		t.Errorf("fleet grid reduction %.2fx below the 2x floor", fleet.Reduction)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "prefilter") {
		t.Error("render missing header")
	}
}

func TestCensusAndCharts(t *testing.T) {
	s := testSuite(t)
	c, err := s.Census()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Rows) != 3 {
		t.Fatalf("%d census rows, want 3 (two evaluation devices + the iOS stand-in)", len(c.Rows))
	}
	for _, row := range c.Rows {
		if row.Libraries == 0 || row.Functions == 0 || row.TextBytes == 0 {
			t.Errorf("%s: empty census row %+v", row.Device, row)
		}
		if row.Functions < row.Libraries {
			t.Errorf("%s: fewer functions than libraries", row.Device)
		}
	}
	var buf bytes.Buffer
	c.Render(&buf)
	if !strings.Contains(buf.String(), "fruitos-12") {
		t.Error("census missing the iOS stand-in")
	}

	// Charts render with bars and plausible extents.
	f7, err := s.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	f7.RenderChart(&buf)
	if !strings.Contains(buf.String(), "#") {
		t.Error("Fig.7 chart has no bars")
	}
	buf.Reset()
	s.Fig8().RenderChart(&buf)
	if !strings.Contains(buf.String(), "acc") || !strings.Contains(buf.String(), "#") {
		t.Error("Fig.8 chart malformed")
	}
	// bar() edge cases.
	if bar(1, 0, 10) != "" || bar(-1, 1, 10) != "" || len(bar(5, 1, 10)) != 10 {
		t.Error("bar clamping wrong")
	}
}

// verdictSeeds are the small-scale suites TestVerdictSweep pins. Seed 42
// is the suite the other tests share.
var verdictSeeds = []int64{1, 5, 42, 1234}

// TestVerdictSweep pins Table VIII beyond one seed: for every seed in
// verdictSeeds and both devices, two lines. The "paper" line is
// Suite.Verdicts, which scans the ground-truth host image; the "firmware"
// line is ScanFirmware's per-CVE result over the whole device, which is
// what an operator reads. Each gives the accuracy and every miss with its
// reported verdict and confidence. A mean hides a bad seed; the per-CVE
// lines do not. An intended verdict change is regenerated with
//
//	PATCHECKO_UPDATE_GOLDEN=1 go test ./internal/experiments/ -run TestVerdictSweep
func TestVerdictSweep(t *testing.T) {
	ctx := context.Background()
	var buf bytes.Buffer
	for _, seed := range verdictSeeds {
		s := testSuite(t)
		if seed != s.Cfg.Seed {
			var err error
			if s, err = NewSuite(ctx, Config{Scale: corpus.ScaleSmall, Seed: seed}); err != nil {
				t.Fatal(err)
			}
		}
		for _, dev := range Devices() {
			r, err := s.Verdicts(ctx, dev.Name)
			if err != nil {
				t.Fatal(err)
			}
			writeVerdictLine(&buf, seed, "paper", r)
			fw := s.Firmware[dev.Name]
			rep, err := s.Analyzer.ScanFirmware(ctx, fw)
			if err != nil {
				t.Fatal(err)
			}
			writeFirmwareLine(&buf, seed, fw, s.DB.IDs(), rep)
		}
	}

	path := filepath.Join("testdata", "verdict_sweep.txt")
	if os.Getenv("PATCHECKO_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing transcript (run with PATCHECKO_UPDATE_GOLDEN=1 to create it): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("verdicts diverge from %s:\n got:\n%s\nwant:\n%s", path, buf.Bytes(), want)
	}
}

// verdictState names a patch state in a sweep line.
func verdictState(patched bool) string {
	if patched {
		return "patched"
	}
	return "vuln"
}

// writeVerdictLine renders one (seed, device, mode) Table VIII as its
// accuracy followed by one entry per miss: the CVE, what was reported
// against the ground truth, the reported confidence, and whether the
// verdict is about the true host function ("true-fn") or a wrong match
// ("wrong-fn").
func writeVerdictLine(w *bytes.Buffer, seed int64, mode string, r VerdictResult) {
	ok := 0
	var misses []string
	for _, row := range r.Rows {
		switch {
		case row.Correct():
			ok++
		case !row.Found:
			misses = append(misses, row.CVE+" not-found")
		default:
			fn := "wrong-fn"
			if row.TrueMatch {
				fn = "true-fn"
			}
			misses = append(misses, fmt.Sprintf("%s %s/%s@%.2f %s", row.CVE,
				verdictState(row.Reported), verdictState(row.GroundTruth), row.Confidence, fn))
		}
	}
	fmt.Fprintf(w, "seed %d %s %s: %d/%d (%.0f%%)", seed, r.Device, mode, ok, len(r.Rows), 100*r.Accuracy())
	if len(misses) > 0 {
		fmt.Fprintf(w, " misses: %s", strings.Join(misses, ", "))
	}
	w.WriteString("\n")
}

// writeFirmwareLine renders one (seed, device) ScanFirmware report as its
// accuracy, how many CVEs it answered from the ground-truth host library
// ("host-lib") and from the true host function ("true-fn"), and one entry
// per miss: the CVE, what was reported against the ground truth, the
// reported confidence and the library it picked, or "not-found" when the
// report has no match for the CVE.
func writeFirmwareLine(w *bytes.Buffer, seed int64, fw *patchecko.Firmware, ids []string, rep *patchecko.Report) {
	ok, hostLib, trueFn := 0, 0, 0
	var misses []string
	for _, id := range ids {
		truth, _ := fw.CVETruthFor(id)
		scan := rep.Results[id]
		if scan == nil || !scan.Matched {
			misses = append(misses, id+" not-found")
			continue
		}
		if scan.Library == truth.Library {
			hostLib++
			if scan.Match.Addr == truth.Addr {
				trueFn++
			}
		}
		if scan.Verdict.Patched == truth.Patched {
			ok++
			continue
		}
		misses = append(misses, fmt.Sprintf("%s %s/%s@%.2f %s", id,
			verdictState(scan.Verdict.Patched), verdictState(truth.Patched), scan.Verdict.Confidence, scan.Library))
	}
	n := len(ids)
	fmt.Fprintf(w, "seed %d %s firmware: %d/%d (%.0f%%) host-lib %d/%d true-fn %d/%d", seed, fw.Device,
		ok, n, 100*float64(ok)/float64(n), hostLib, n, trueFn, n)
	if len(misses) > 0 {
		fmt.Fprintf(w, " misses: %s", strings.Join(misses, ", "))
	}
	w.WriteString("\n")
}
