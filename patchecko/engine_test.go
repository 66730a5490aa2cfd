package patchecko

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/detector"
)

// normalizeReport zeroes the fields that legitimately vary across runs so
// the remainder can be compared with reflect.DeepEqual; see Report.Normalize
// (the public form served comparisons use). UniqueFuncs stays: it is
// deterministic in the inputs regardless of configuration.
func normalizeReport(r *Report) { r.Normalize() }

// TestScanFirmwareParallelMatchesSequential is the engine's determinism
// guarantee: the Report of a whole-firmware scan is identical — every
// CVEScan field except timings, and every deterministic counter — at any
// worker count and under any goroutine scheduling.
func TestScanFirmwareParallelMatchesSequential(t *testing.T) {
	model, db := fixtures(t)
	fw, err := BuildFirmware(ThingOS, ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	var base *Report
	for _, workers := range []int{0, 1, 4, 16} {
		an := NewAnalyzer(model, db)
		an.Workers = workers
		report, err := an.ScanFirmware(context.Background(), fw)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got, want := report.Stats.ScansRun+report.Stats.CellsPruned, report.Stats.Images*report.Stats.CVEs*2; got != want {
			t.Errorf("workers=%d: ran+pruned %d grid cells, want %d", workers, got, want)
		}
		// The cache guarantee: reference profiling runs at most once per
		// CVE×mode, however many images consult it.
		if max := int64(report.Stats.CVEs * 2); report.Stats.CacheMisses > max {
			t.Errorf("workers=%d: %d cache misses, want <= %d (once per CVE×mode)",
				workers, report.Stats.CacheMisses, max)
		}
		normalizeReport(report)
		if base == nil {
			base = report
			continue
		}
		if report.Stats != base.Stats {
			t.Errorf("workers=%d: stats diverge: %+v vs %+v", workers, report.Stats, base.Stats)
		}
		if !reflect.DeepEqual(base, report) {
			for id, want := range base.Results {
				if got := report.Results[id]; !reflect.DeepEqual(want, got) {
					t.Errorf("workers=%d: %s diverges from sequential scan:\n got %+v\nwant %+v",
						workers, id, got, want)
				}
			}
		}
	}
}

// TestScanFirmwareScalarMatchesBatched pins a whole-firmware scan against
// the every-pair reference implementations: at Workers 1 and 4, each CVE's
// reported scan must equal the scalar Model.Candidates plus
// dynamic.Validate oracle for the library and query mode it names.
func TestScanFirmwareScalarMatchesBatched(t *testing.T) {
	model, db := fixtures(t)
	fw, err := BuildFirmware(ThingOS, ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := PrepareImages(context.Background(), fw.Images, 4)
	if err != nil {
		t.Fatal(err)
	}
	byLib := make(map[string]*PreparedImage, len(prepared))
	for _, p := range prepared {
		byLib[p.Image.LibName] = p
	}
	oracle := NewAnalyzer(model, db)
	for _, workers := range []int{1, 4} {
		an := NewAnalyzer(model, db)
		an.Workers = workers
		report, err := an.ScanFirmware(context.Background(), fw)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var checked int
		for _, id := range db.IDs() {
			got := report.Results[id]
			if got == nil {
				continue
			}
			p, ok := byLib[got.Library]
			if !ok {
				t.Fatalf("workers=%d %s: result names unknown library %q", workers, id, got.Library)
			}
			checkOracle(t, fmt.Sprintf("workers=%d %s/%s/%v", workers, got.Library, id, got.Mode),
				an, p, got, everyPairScan(t, oracle, p, id, got.Mode))
			checked++
		}
		if checked == 0 {
			t.Fatalf("workers=%d: scan reported no results to check", workers)
		}
	}
}

// TestForEachPool pins the worker pool's contract: every index runs exactly
// once, on a worker index below the clamped pool size, and a pool of one
// runs inline — a panic in fn reaches the caller's goroutine, where no
// pool goroutine could deliver it.
func TestForEachPool(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct{ n, workers, pool int }{
		{n: 50, workers: 4, pool: 4},
		{n: 3, workers: 100, pool: 3},
		{n: 50, workers: 0, pool: min(runtime.NumCPU(), 50)},
		{n: 0, workers: 4, pool: 0},
	} {
		var mu sync.Mutex
		seen := make([]int, tc.n)
		forEach(ctx, tc.n, tc.workers, func(w, i int) {
			mu.Lock()
			defer mu.Unlock()
			if w < 0 || w >= tc.pool {
				t.Errorf("n=%d workers=%d: worker index %d outside [0, %d)", tc.n, tc.workers, w, tc.pool)
			}
			seen[i]++
		})
		for i, c := range seen {
			if c != 1 {
				t.Errorf("n=%d workers=%d: index %d ran %d times", tc.n, tc.workers, i, c)
			}
		}
	}
	func() {
		defer func() {
			if r := recover(); r != "inline" {
				t.Errorf("one-worker pool: recovered %v, want the panic from fn", r)
			}
		}()
		forEach(ctx, 3, 1, func(w, i int) { panic("inline") })
	}()
}

// TestScanImageWorkersMatchSequential pins standalone ScanImage, whose
// candidate validation runs on a pool of Analyzer.Workers: at 1, 2, 4 and
// 100 workers every CVE's scan of its host image is identical — candidate
// order, survivors, exclusions with their reasons, ranking and verdict.
func TestScanImageWorkersMatchSequential(t *testing.T) {
	model, db := fixtures(t)
	fw, err := BuildFirmware(ThingOS, ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := PrepareImages(context.Background(), fw.Images, 1)
	if err != nil {
		t.Fatal(err)
	}
	scanAll := func(workers int) []*CVEScan {
		an := NewAnalyzer(model, db)
		an.Workers = workers
		var scans []*CVEScan
		for _, id := range db.IDs() {
			for _, p := range prepared {
				for _, mode := range []QueryMode{QueryVulnerable, QueryPatched} {
					scan, err := an.ScanImage(context.Background(), p, id, mode)
					if err != nil {
						t.Fatalf("workers=%d %s/%s: %v", workers, p.Image.LibName, id, err)
					}
					scan.StaticTime, scan.DynamicTime = 0, 0
					scans = append(scans, scan)
				}
			}
		}
		return scans
	}
	base := scanAll(1)
	excluded := 0
	for _, scan := range base {
		excluded += len(scan.Excluded)
	}
	if excluded == 0 {
		t.Fatal("fixture excludes no candidate; exclusion reasons go unchecked")
	}
	for _, workers := range []int{2, 4, 100} {
		for i, scan := range scanAll(workers) {
			if !reflect.DeepEqual(scan, base[i]) {
				t.Errorf("workers=%d %s/%s/%v diverges from one worker:\n got %+v\nwant %+v",
					workers, scan.Library, scan.CVE, scan.Mode, scan, base[i])
			}
		}
	}
}

// TestDedupValidateCancelled: candidates a cancelled context stops are
// neither survivors nor exclusions at any pool size, and no dedup row
// memoizes them.
func TestDedupValidateCancelled(t *testing.T) {
	model, db, fw := goldenFixtures(t)
	id := db.IDs()[0]
	entry, _ := db.Get(id)
	truth, _ := fw.CVETruthFor(id)
	im, _ := fw.Image(truth.Library)
	p, err := Prepare(im)
	if err != nil {
		t.Fatal(err)
	}
	cands := make([]detector.Candidate, len(p.Dis.Funcs))
	for i := range cands {
		cands[i] = detector.Candidate{Index: i}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{0, 1, 4} {
		an := NewAnalyzer(model, db)
		survivors, profiles, excluded, rows := an.dedupValidate(ctx, p, entry, cands, p.Dis.Funcs, entry.Environments(), workers)
		if len(survivors) != 0 || len(profiles) != 0 {
			t.Errorf("workers=%d: cancelled validation still profiled %d candidates", workers, len(survivors))
		}
		if len(excluded) != 0 {
			t.Errorf("workers=%d: cancellation recorded as exclusions: %v", workers, excluded)
		}
		for i, row := range rows {
			if row.done {
				t.Fatalf("workers=%d: row %d memoized a cancelled outcome", workers, i)
			}
		}
	}
}

// TestBetter pins the tie-break ordering the parallel reducer folds with.
// better must be a strict order — ties return false so the earlier scan in
// sequential iteration order wins deterministically.
func TestBetter(t *testing.T) {
	matched := func(sim float64) *CVEScan {
		return &CVEScan{Matched: true, Match: RankedMatch{Sim: sim}}
	}
	unmatched := func(cands int) *CVEScan {
		return &CVEScan{NumCandidates: cands}
	}
	cases := []struct {
		name string
		a, b *CVEScan
		want bool
	}{
		{"matched beats unmatched", matched(9.9), unmatched(100), true},
		{"unmatched loses to matched", unmatched(100), matched(9.9), false},
		{"unmatched: more candidates wins", unmatched(5), unmatched(3), true},
		{"unmatched: fewer candidates loses", unmatched(3), unmatched(5), false},
		{"unmatched: equal candidates is a tie", unmatched(4), unmatched(4), false},
		{"matched: smaller distance wins", matched(0.5), matched(1.5), true},
		{"matched: larger distance loses", matched(1.5), matched(0.5), false},
		{"matched: equal distance is a tie", matched(0.7), matched(0.7), false},
	}
	for _, tc := range cases {
		if got := better(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: better = %v, want %v", tc.name, got, tc.want)
		}
	}
	// Strictness: better(a, b) and better(b, a) must never both hold, or
	// the reduction's winner would depend on evaluation order.
	all := []*CVEScan{matched(0.5), matched(0.5), matched(2), unmatched(0), unmatched(7)}
	for _, a := range all {
		for _, b := range all {
			if better(a, b) && better(b, a) {
				t.Errorf("better is not asymmetric for %+v vs %+v", a, b)
			}
		}
	}
}

// TestPrepareImagesDeterministicError corrupts two images mid-set and
// checks that every worker count surfaces the lowest-index failure, not
// whichever goroutine loses the race.
func TestPrepareImagesDeterministicError(t *testing.T) {
	fw, err := BuildFirmware(ThingOS, ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(fw.Images) < 2 {
		t.Fatal("fixture firmware too small to corrupt mid-set")
	}
	corrupt := func(im *Image, name string) *Image {
		bad := *im
		bad.LibName = name
		bad.Arch = "no-such-arch"
		return &bad
	}
	// Two corrupt images: the earlier one must win at every worker count.
	images := append([]*Image(nil), fw.Images...)
	images[1] = corrupt(images[1], "libfirstbad")
	images = append(images, corrupt(images[0], "liblastbad"))
	for _, workers := range []int{0, 1, 2, 8} {
		if _, err := PrepareImages(context.Background(), images, workers); err == nil {
			t.Fatalf("workers=%d: corrupt image set prepared without error", workers)
		} else if !strings.Contains(err.Error(), "libfirstbad") {
			t.Errorf("workers=%d: got error %q, want the index-1 image's error", workers, err)
		}
	}
	// End to end, ScanFirmware isolates the failures instead of aborting:
	// the corrupt images become typed ScanErrors in deterministic (image)
	// order, and every healthy image is still scanned for every CVE.
	model, db := fixtures(t)
	badFw := *fw
	badFw.Images = images
	an := NewAnalyzer(model, db)
	an.Workers = 8
	report, err := an.ScanFirmware(context.Background(), &badFw)
	if err != nil {
		t.Fatalf("isolated scan aborted: %v", err)
	}
	if report.Stats.ImagesFailed != 2 {
		t.Errorf("ImagesFailed = %d, want 2", report.Stats.ImagesFailed)
	}
	if len(report.Errors) != 2 {
		t.Fatalf("recorded %d scan errors, want 2: %v", len(report.Errors), report.Errors)
	}
	if report.Errors[0].Library != "libfirstbad" || report.Errors[1].Library != "liblastbad" {
		t.Errorf("error order not deterministic: %+v", report.Errors)
	}
	for _, se := range report.Errors {
		if se.CVE != "" || se.Kind != FailPrepare {
			t.Errorf("image failure misrecorded: %+v", se)
		}
		if !strings.Contains(se.Error(), se.Library) {
			t.Errorf("rendered error %q does not name the image", se.Error())
		}
	}
	for id, scan := range report.Results {
		if scan == nil {
			t.Errorf("%s: no result despite healthy images", id)
		}
	}
	healthy := len(images) - 2
	if got, want := report.Stats.ScansRun+report.Stats.CellsPruned, report.Stats.CVEs*healthy*2; got != want {
		t.Errorf("ScansRun+CellsPruned = %d, want the full grid (%d) over the %d healthy images",
			got, want, healthy)
	}
}

// TestScanFirmwareCancelled checks prompt, leak-free cancellation.
func TestScanFirmwareCancelled(t *testing.T) {
	model, db := fixtures(t)
	fw, err := BuildFirmware(ThingOS, ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	an := NewAnalyzer(model, db)
	an.Workers = 8
	start := time.Now()
	if _, err := an.ScanFirmware(ctx, fw); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled scan returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancelled scan took %v, want a prompt return", elapsed)
	}
	p, err := Prepare(fw.Images[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := an.ScanImage(ctx, p, "CVE-2018-9412", QueryVulnerable); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ScanImage returned %v, want context.Canceled", err)
	}
	if _, err := PrepareImages(ctx, fw.Images, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled PrepareImages returned %v, want context.Canceled", err)
	}
	// Every worker goroutine must have drained.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before cancel, %d after", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConcurrentScansShareReferenceCache hammers one analyzer from many
// goroutines (run under -race via `make race`): the single-flight cache
// must compute each reference profile exactly once and every scan must
// still see identical results.
func TestConcurrentScansShareReferenceCache(t *testing.T) {
	model, db := fixtures(t)
	fw, err := BuildFirmware(ThingOS, ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	truth, ok := fw.CVETruthFor("CVE-2018-9412")
	if !ok {
		t.Fatal("no ground truth")
	}
	im, _ := fw.Image(truth.Library)
	p, err := Prepare(im)
	if err != nil {
		t.Fatal(err)
	}
	an := NewAnalyzer(model, db)
	an.Workers = 2
	want, err := an.ScanImage(context.Background(), p, "CVE-2018-9412", QueryVulnerable)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	scans := make([]*CVEScan, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			scans[g], errs[g] = an.ScanImage(context.Background(), p, "CVE-2018-9412", QueryVulnerable)
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		scans[g].StaticTime, scans[g].DynamicTime = 0, 0
	}
	want.StaticTime, want.DynamicTime = 0, 0
	for g := 0; g < goroutines; g++ {
		if !reflect.DeepEqual(scans[g], want) {
			t.Errorf("goroutine %d produced a divergent scan", g)
		}
	}
	// Single-flight: one CVE on one arch touches at most three profile
	// keys (query + differential vuln/patched), no matter how many
	// concurrent scans consulted them.
	if misses := an.consults.refMisses.Load(); misses > 3 {
		t.Errorf("%d cache misses for one CVE, want <= 3 (single-flight broken)", misses)
	}
}
