package patchecko

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/minic"
	"repro/internal/obs"
)

// TestScanFirmwareChaos is the fault-injection acceptance test: with faults
// armed at every layer of the pipeline — image preparation, worker panics,
// reference execution, reference decoding — ScanFirmware must still return a
// Report covering every non-faulted cell, surface each injected fault as a
// typed ScanError, and produce a byte-identical Report at any worker count.
func TestScanFirmwareChaos(t *testing.T) {
	model, db := fixtures(t)
	fw, err := BuildFirmware(ThingOS, ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(fw.Images) < 3 {
		t.Fatal("fixture firmware too small for chaos testing")
	}

	// Fault targets. CVE-2018-9427 and CVE-2018-9420 are each the only CVE
	// hosted by their library (libkeystore, libexifparser), so breaking one
	// reference cannot bleed into another CVE's reference images.
	const (
		panicCVE  = "CVE-2018-9412"
		trapCVE   = "CVE-2018-9427"
		decodeCVE = "CVE-2018-9420"
	)
	trapEntry, ok := db.Get(trapCVE)
	if !ok {
		t.Fatalf("%s missing from DB", trapCVE)
	}
	decodeEntry, ok := db.Get(decodeCVE)
	if !ok {
		t.Fatalf("%s missing from DB", decodeCVE)
	}

	// The prepare fault must not take out the libraries whose reference
	// faults we want observed from healthy scans of their host images.
	badLib, panicLib := "", ""
	for _, im := range fw.Images {
		if im.LibName == trapEntry.Library || im.LibName == decodeEntry.Library {
			continue
		}
		if badLib == "" {
			badLib = im.LibName
		} else if panicLib == "" {
			panicLib = im.LibName
		}
	}
	if badLib == "" || panicLib == "" {
		t.Fatal("could not pick distinct fault-target libraries")
	}

	// One fault per pipeline layer. The compid.match fault targets the same
	// cell as the worker panic: a faulted prefilter decision must degrade to
	// keeping the cell — never prune it — so the panic cell stays scheduled
	// in the prefiltered runs and the panic fault fires there too.
	disarms := []func(){
		faultinject.Arm(faultinject.PrepareFail, badLib,
			errors.New("injected prepare failure")),
		faultinject.Arm(faultinject.CompidMatch, panicLib+"|"+panicCVE,
			errors.New("injected prefilter fault")),
		faultinject.Arm(faultinject.ScanPanic, panicLib+"|"+panicCVE+"|"+QueryVulnerable.String(),
			errors.New("injected worker panic")),
		faultinject.Arm(faultinject.ExecTrap, trapEntry.Library+".patched:"+trapEntry.FuncName,
			&minic.TrapError{Kind: minic.TrapOOB, Msg: "injected reference trap"}),
		faultinject.Arm(faultinject.DecodeCorrupt, decodeEntry.Library+".vuln",
			errors.New("injected reference rot")),
	}
	disarmAll := func() {
		for _, d := range disarms {
			d()
		}
	}
	defer disarmAll()

	healthy := len(fw.Images) - 1
	// Normalized reports are worker-count-invariant within one prefilter
	// setting, but under armed faults the prefiltered grid can legitimately
	// fold a different (still correct) no-match winner and a different
	// CellsFailed count than the full grid — the byte-identity of prefilter
	// on vs off is a fault-free guarantee, pinned by the golden and recall
	// suites — so each prefilter setting keeps its own baseline report.
	bases := make(map[bool]*Report)
	// Deterministic counters depend on the prefilter setting (pruned cells
	// never count), so each setting keeps its own worker-count-invariant
	// baseline.
	baseCounters := make(map[bool]map[string]int64)
	// The traced runs arm full observability and the prefilter runs let the
	// component prefilter prune the grid: observed, unobserved, pruned and
	// full-grid scans must all produce byte-identical reports (per prefilter
	// setting) even with every fault armed, and the deterministic pipeline
	// counters must not depend on the worker count either.
	for _, cfg := range []struct {
		workers   int
		traced    bool
		prefilter bool
	}{
		{1, false, false}, {4, false, false}, {16, false, false},
		{1, true, false}, {4, true, false}, {16, true, false},
		{1, true, true}, {4, true, true}, {16, true, true},
	} {
		workers := cfg.workers
		// A fresh analyzer per run: reference failures memoize per analyzer,
		// and the determinism guarantee is about a cold scan.
		an := NewAnalyzer(model, db)
		an.Workers = workers
		an.Prefilter = cfg.prefilter
		if cfg.traced {
			an.Obs = obs.NewTraced(0)
		}
		report, err := an.ScanFirmware(context.Background(), fw)
		if err != nil {
			t.Fatalf("workers=%d: chaos scan aborted: %v", workers, err)
		}
		if cfg.traced {
			counters := an.Obs.Counters()
			if baseCounters[cfg.prefilter] == nil {
				baseCounters[cfg.prefilter] = counters
			} else {
				for name, want := range baseCounters[cfg.prefilter] {
					if got := counters[name]; got != want {
						t.Errorf("workers=%d prefilter=%v: chaos counter %s = %d, want %d (first traced run)",
							workers, cfg.prefilter, name, got, want)
					}
				}
			}
		}

		// Every cell the faults did not touch completed: no CVE lost its
		// result — even when every cell the prefilter kept failed, the
		// second-chance pass must fold an answer from the pruned cells —
		// and the run/fail/pruned split accounts for the whole grid over
		// the healthy images.
		for id, scan := range report.Results {
			if scan == nil {
				t.Errorf("workers=%d: %s: no result despite healthy cells", workers, id)
			}
		}
		if got, want := report.Stats.ScansRun+report.Stats.CellsFailed+report.Stats.CellsPruned, report.Stats.CVEs*healthy*2; got != want {
			t.Errorf("workers=%d: ScansRun+CellsFailed+CellsPruned = %d, want %d (full healthy grid)",
				workers, got, want)
		}
		if !cfg.prefilter && report.Stats.CellsPruned != 0 {
			t.Errorf("workers=%d: full-grid run pruned %d cells", workers, report.Stats.CellsPruned)
		}
		if cfg.prefilter && report.Stats.CellsPruned == 0 {
			t.Errorf("workers=%d: prefiltered chaos run pruned nothing", workers)
		}
		if report.Stats.ImagesFailed != 1 {
			t.Errorf("workers=%d: ImagesFailed = %d, want 1", workers, report.Stats.ImagesFailed)
		}

		// Each injected fault surfaces as a typed ScanError — exactly once
		// for the cell-scoped faults, once per query mode that consulted the
		// broken reference for the reference-scoped ones — and never more,
		// despite every healthy image observing the reference failures.
		seen := make(map[ScanError]bool)
		var prepErrs, panicErrs, trapErrs, decodeErrs []ScanError
		for _, se := range report.Errors {
			if seen[se] {
				t.Errorf("workers=%d: duplicate ScanError survived dedup: %+v", workers, se)
			}
			seen[se] = true
			switch {
			case strings.Contains(se.Msg, "injected prepare failure"):
				prepErrs = append(prepErrs, se)
			case strings.Contains(se.Msg, "injected worker panic"):
				panicErrs = append(panicErrs, se)
			case strings.Contains(se.Msg, "injected reference trap"):
				trapErrs = append(trapErrs, se)
			case strings.Contains(se.Msg, "injected reference rot"):
				decodeErrs = append(decodeErrs, se)
			default:
				t.Errorf("workers=%d: unexpected ScanError: %v", workers, se)
			}
		}
		if len(prepErrs) != 1 || prepErrs[0].CVE != "" ||
			prepErrs[0].Library != badLib || prepErrs[0].Kind != FailPrepare {
			t.Errorf("workers=%d: prepare fault recorded as %+v", workers, prepErrs)
		}
		if len(panicErrs) != 1 || panicErrs[0].CVE != panicCVE ||
			panicErrs[0].Library != panicLib || panicErrs[0].Mode != QueryVulnerable ||
			panicErrs[0].Kind != FailPanic {
			t.Errorf("workers=%d: panic fault recorded as %+v", workers, panicErrs)
		}
		// The trapped patched reference fails every patched-mode cell with
		// candidates, and any vulnerable-mode cell whose match reached the
		// differential stage — one deduplicated error per mode, at most.
		if len(trapErrs) < 1 || len(trapErrs) > 2 {
			t.Errorf("workers=%d: trap fault recorded %d times, want 1 per consulting mode: %+v",
				workers, len(trapErrs), trapErrs)
		}
		for _, se := range trapErrs {
			if se.CVE != trapCVE || se.Library != "" || se.Kind != FailTrap {
				t.Errorf("workers=%d: trap fault recorded as %+v", workers, se)
			}
		}
		// The rotted vulnerable reference fails every vulnerable-mode cell
		// up front; patched-mode cells only hit it from the differential
		// stage. Again one deduplicated error per consulting mode.
		if len(decodeErrs) < 1 || len(decodeErrs) > 2 {
			t.Errorf("workers=%d: decode fault recorded %d times, want 1 per consulting mode: %+v",
				workers, len(decodeErrs), decodeErrs)
		}
		sawVulnMode := false
		for _, se := range decodeErrs {
			if se.CVE != decodeCVE || se.Library != "" || se.Kind != FailDecode {
				t.Errorf("workers=%d: decode fault recorded as %+v", workers, se)
			}
			sawVulnMode = sawVulnMode || se.Mode == QueryVulnerable
		}
		if !sawVulnMode {
			t.Errorf("workers=%d: decode fault never observed from vulnerable-mode cells: %+v",
				workers, decodeErrs)
		}

		// The determinism guarantee holds under faults: the whole Report —
		// results, errors, and counters — is identical at any worker count
		// within one prefilter setting.
		normalizeReport(report)
		if bases[cfg.prefilter] == nil {
			bases[cfg.prefilter] = report
			continue
		}
		base := bases[cfg.prefilter]
		if !reflect.DeepEqual(base, report) {
			t.Errorf("workers=%d prefilter=%v: chaos report diverges from first scan of this setting",
				workers, cfg.prefilter)
			if !reflect.DeepEqual(base.Errors, report.Errors) {
				t.Errorf("  errors:\n got %+v\nwant %+v", report.Errors, base.Errors)
			}
			if base.Stats != report.Stats {
				t.Errorf("  stats:\n got %+v\nwant %+v", report.Stats, base.Stats)
			}
		}
	}

	// Disarm everything and rescan: the chaos runs leave no residue — a
	// fresh analyzer on the same inputs reports zero errors.
	disarmAll()
	if faultinject.Active() {
		t.Fatal("faults still armed after disarm")
	}
	an := NewAnalyzer(model, db)
	an.Workers = 4
	report, err := an.ScanFirmware(context.Background(), fw)
	if err != nil {
		t.Fatalf("post-chaos scan aborted: %v", err)
	}
	if len(report.Errors) != 0 {
		t.Errorf("post-chaos scan recorded errors: %v", report.Errors)
	}
	if report.Stats.ScansRun+report.Stats.CellsPruned != report.Stats.CVEs*report.Stats.Images*2 {
		t.Errorf("post-chaos scan incomplete: %+v", report.Stats)
	}
	if report.Stats.CellsPruned == 0 {
		t.Errorf("post-chaos default-configuration scan pruned nothing: %+v", report.Stats)
	}
}
