// Parallel scan engine: whole-firmware scans schedule the (image, CVE,
// query-mode) grid across a bounded worker pool, amortize per-CVE reference
// work through a single-flight cache, and reduce results in sequential
// iteration order so the final Report is identical to a one-worker run
// regardless of scheduling.
//
// Failures are isolated, not fatal: an image that will not prepare, a CVE
// reference that will not execute, or a grid cell that traps or panics is
// recorded as a typed ScanError on the Report while every unaffected cell
// completes. Only context cancellation aborts the whole scan.

package patchecko

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/binimg"
	"repro/internal/cas"
	"repro/internal/compid"
	"repro/internal/detector"
	"repro/internal/diffengine"
	"repro/internal/dynamic"
	"repro/internal/faultinject"
	"repro/internal/features"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/vulndb"
)

// refKey identifies one reference slot: a CVE's vulnerable or patched
// reference for one architecture under one execution step limit.
type refKey struct {
	cve   string
	arch  string
	mode  QueryMode
	limit int64
}

// tableKey identifies one dedup-table slot: a CVE's table for one
// architecture under one execution step limit. The table is
// mode-independent and keys its score rows by mode.
type tableKey struct {
	cve   string
	arch  string
	limit int64
}

// refEntry holds the memoized reference work for one key under a mutex
// (not a sync.Once): outcomes memoize permanently — including failures,
// which are deterministic in the inputs — EXCEPT cancellation, which says
// nothing about the reference and must not poison the cache for later
// scans. Holding the mutex across the computation single-flights
// concurrent consults of the same key.
type refEntry struct {
	mu sync.Mutex

	refDone bool
	ref     refEvidence
	refErr  error

	// qh caches the reference static vector's first-layer halves for the
	// batched static stage: normalized and half-multiplied once per
	// (CVE, arch, mode), reused by every image and worker.
	qhDone bool
	qh     *detector.QueryHalves

	profDone bool
	profiles []dynamic.Profile
	profErr  error
}

// refEvidence is a decoded reference plus what the static stage and the
// differential verdict read from it: its static feature vector and its
// differential signature, both derived once per entry.
type refEvidence struct {
	*vulndb.Ref
	vec features.Vector
	sig diffengine.Signature
}

// resolveRefLocked decodes and disassembles the reference and derives its
// evidence once per entry. Callers hold e.mu.
func (e *refEntry) resolveRefLocked(entry *vulndb.Entry, arch string, mode QueryMode) (refEvidence, error) {
	if !e.refDone {
		ref, err := refFor(entry, arch, mode)
		if err == nil {
			e.ref = refEvidence{Ref: ref, vec: ref.StaticVec(), sig: diffengine.SigOf(ref.Fn)}
		}
		e.refErr = err
		e.refDone = true
	}
	return e.ref, e.refErr
}

// scoreKey identifies one static-score row of a dedup table: one query
// mode against one function body.
type scoreKey struct {
	mode QueryMode
	fn   cas.Addr
}

// scoreEntry memoizes one static score under a mutex; holding the mutex
// across the computation single-flights concurrent consults, exactly like
// a reference entry.
type scoreEntry struct {
	mu    sync.Mutex
	done  bool
	score float64
}

// dynEntry memoizes what a CVE concludes about one function body, under a
// single-flight mutex: its validation outcome, its ranking distance to
// each query mode's reference, and the differential verdict when the body
// tops a ranking. The distance and the verdict are computed on first need.
type dynEntry struct {
	mu       sync.Mutex
	done     bool
	panicked bool
	// sim[m-QueryVulnerable] is the distance to query mode m's reference
	// profiles once simDone[m-QueryVulnerable] is set.
	simDone [2]bool
	eps     []dynamic.EnvProfile
	err     error
	sim     [2]float64
	// verdict is nil until the body tops a ranking; most rows never do.
	verdict *diffengine.Verdict
}

// dedupTable is one (CVE, arch, step limit)'s content-addressed dedup
// rows: static scores keyed by (mode, body) and validation rows keyed by
// body alone — environments depend only on the CVE, so vulnerable- and
// patched-mode cells share one execution, and the row also holds the
// body's ranking distances and verdict. Its row count grows with the
// distinct bodies that reached the CVE. The table also carries the CVE's
// component signature for the prefilter, derived once on first use.
type dedupTable struct {
	mu     sync.Mutex
	scores map[scoreKey]*scoreEntry
	dyn    map[cas.Addr]*dynEntry

	sigOnce sync.Once
	sig     *compid.Signature
}

func (t *dedupTable) score(k scoreKey) *scoreEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	return memo(&t.scores, k)
}

func (t *dedupTable) validation(fn cas.Addr) *dynEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	return memo(&t.dyn, fn)
}

// memo returns the slot for k in *m, creating the map and the slot on first
// sight. Callers hold the mutex guarding *m.
func memo[K comparable, V any](m *map[K]*V, k K) *V {
	if *m == nil {
		*m = make(map[K]*V)
	}
	v, ok := (*m)[k]
	if !ok {
		v = new(V)
		(*m)[k] = v
	}
	return v
}

// RefCache memoizes per-CVE work across images, query modes, goroutines
// and — when shared — analyzers: reference work (decoded references with
// their static vectors and signatures, first-layer query halves, dynamic
// profiles) and the content-addressed dedup tables (static scores,
// candidate validations, ranking distances and verdicts per function body,
// plus the CVE's prefilter signature). Every Analyzer owns a private one;
// the resident scan service gives every job one process-wide cache, so a
// CVE's reference is profiled and its signature derived once per process,
// not once per job, and a firmware update executes, ranks and decides only
// the bodies no earlier job did.
//
// The zero value is ready to use. Only InvalidateCVE drops slots: at one
// step limit there is at most one per (CVE, arch, mode) reference and one
// table per (CVE, arch), so only a table's rows grow. The cache counts no
// consults: each analyzer counts its own.
type RefCache struct {
	mu     sync.Mutex
	refs   map[refKey]*refEntry
	tables map[tableKey]*dedupTable
}

func (c *RefCache) entry(k refKey) *refEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return memo(&c.refs, k)
}

// table returns the dedup table for (CVE, arch, step limit).
func (c *RefCache) table(cve, arch string, limit int64) *dedupTable {
	c.mu.Lock()
	defer c.mu.Unlock()
	return memo(&c.tables, tableKey{cve: cve, arch: arch, limit: limit})
}

// InvalidateCVE drops every cached slot for the CVE — its references and
// its dedup tables with all their score and validation rows (distances and
// verdicts included) and its signature — forcing the next consult to
// recompute. Holders of a slot checked out before keep their pointer; the
// cache merely forgets it. The scan service calls it before retrying a job
// whose ScanErrors named the CVE: failures memoize permanently (they are
// deterministic for a fixed environment), so a transient fault — an
// injected chaos fault, a since-fixed reference file — must be evicted
// explicitly for a retry to observe the recovered state.
func (c *RefCache) InvalidateCVE(cveID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.refs {
		if k.cve == cveID {
			delete(c.refs, k)
		}
	}
	for k := range c.tables {
		if k.cve == cveID {
			delete(c.tables, k)
		}
	}
}

// Len returns the number of cached slots, dedup tables included.
func (c *RefCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.refs) + len(c.tables)
}

// refcache returns the cache reference work goes through: the process-wide
// shared cache when the analyzer was given one, its private cache otherwise.
func (a *Analyzer) refcache() *RefCache {
	if a.SharedCache != nil {
		return a.SharedCache
	}
	return &a.cache
}

// cachedRef returns the decoded reference for (CVE, arch, mode) with its
// static vector and signature, computed once per cache slot. Decoding is
// cheap next to profiling, so it is memoized without touching the hit/miss
// counters.
func (a *Analyzer) cachedRef(entry *vulndb.Entry, arch string, mode QueryMode) (refEvidence, error) {
	e := a.refcache().entry(refKey{cve: entry.ID, arch: arch, mode: mode, limit: a.StepLimit})
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.resolveRefLocked(entry, arch, mode)
}

// cachedQueryHalves returns the reference's precomputed first-layer query
// halves, built once per (CVE, arch, mode, step limit) for the analyzer's
// lifetime. Like cachedRef this is cheap next to profiling and does not
// touch the hit/miss counters.
func (a *Analyzer) cachedQueryHalves(entry *vulndb.Entry, arch string, mode QueryMode) (*detector.QueryHalves, error) {
	e := a.refcache().entry(refKey{cve: entry.ID, arch: arch, mode: mode, limit: a.StepLimit})
	e.mu.Lock()
	defer e.mu.Unlock()
	ref, err := e.resolveRefLocked(entry, arch, mode)
	if err != nil {
		return nil, err
	}
	if !e.qhDone {
		e.qh = a.model.PrepareQuery(ref.vec)
		e.qhDone = true
	}
	return e.qh, nil
}

// cachedRefProfiles returns the reference's per-environment dynamic
// profiles, executing the reference once per (CVE, arch, mode, step limit)
// for the analyzer's lifetime. References must run every environment to
// completion; a trapping reference is a memoized failure. A run its
// context ended is returned but NOT memoized, so a later scan with a live
// context retries instead of inheriting the stale cancellation. The caller
// must not mutate the returned slice; ScanImage copies it before publishing
// on a CVEScan.
func (a *Analyzer) cachedRefProfiles(ctx context.Context, entry *vulndb.Entry, arch string, mode QueryMode, envs []*minic.Env) ([]dynamic.Profile, error) {
	e := a.refcache().entry(refKey{cve: entry.ID, arch: arch, mode: mode, limit: a.StepLimit})
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.profDone {
		a.consults.refHits.Add(1)
		return e.profiles, e.profErr
	}
	a.consults.refMisses.Add(1)
	ref, err := e.resolveRefLocked(entry, arch, mode)
	if err != nil {
		e.profDone, e.profErr = true, err
		return nil, err
	}
	profiles, err := profileReference(ctx, ref.Ref, envs, a.exec())
	if err != nil && ctx.Err() != nil {
		// The context ended the run. Its deadline can surface as a budget
		// trap inside an execution rather than as a context error, so the
		// context decides: nothing it cut short is memoized.
		return nil, err
	}
	e.profDone, e.profiles, e.profErr = true, profiles, err
	return e.profiles, e.profErr
}

// profileReference executes the reference under its own environments. The
// reference defines the environments, so it must complete all of them; a
// trap here means the stored reference is unusable for this step limit.
func profileReference(ctx context.Context, ref *vulndb.Ref, envs []*minic.Env, ex dynamic.Exec) ([]dynamic.Profile, error) {
	eps, err := dynamic.ProfileFunc(ctx, ref.Dis, ref.Fn, envs, ex)
	if err != nil {
		return nil, err
	}
	return dynamic.CompleteVectors(eps)
}

// ScanStats are scan-level counters for one ScanFirmware run. All fields
// except the wall-clock durations are deterministic in the inputs — they do
// not depend on worker count or goroutine scheduling.
type ScanStats struct {
	Workers     int           // effective worker-pool size
	Images      int           // library images prepared
	CVEs        int           // CVEs scanned
	ScansRun    int           // (image, CVE, mode) grid cells completed
	CellsPruned int           // grid cells the component prefilter skipped, net of rescued rows (see Analyzer.Prefilter)
	CacheHits   int64         // reference-profile consults answered from cache
	CacheMisses int64         // reference-profile consults that computed
	PrepareWall time.Duration // wall-clock of the prepare stage
	ScanWall    time.Duration // wall-clock of the scan grid and reduction

	// Fault-isolation counters.
	ImagesFailed       int // images that failed to prepare (isolated, see Report.Errors)
	CellsFailed        int // grid cells that failed (before deduplication)
	CandidatesExcluded int // dynamic-stage candidates excluded with a recorded reason
	PartialSurvivors   int // survivors ranked from truncated profiles

	// Dedup / delta-scan counters. UniqueFuncs is deterministic in the
	// inputs; the rest measure the work the dedup caches and the persistent
	// store saved this run, so they legitimately vary with cache and store
	// warmth — the equivalence suites zero them before comparing.
	UniqueFuncs        int   // distinct function content addresses across prepared images
	PairsDeduped       int64 // static scores reused from the in-memory dedup cache
	PairsFromStore     int64 // static scores answered by the persistent store
	ValidationsDeduped int64 // candidate validations reused from the in-memory dedup cache
	StoreHits          int64 // persistent-store consults answered with a current score
	StoreMisses        int64 // persistent-store consults with no usable entry
	StoreInvalidated   int64 // persistent-store consults stale under the current model hash
}

// PrepareImages disassembles and feature-extracts a set of library images
// with a bounded worker pool. Results keep the input order. When several
// images fail, the error of the lowest-index image wins regardless of which
// worker hit its error first, so the call is deterministic for any worker
// count. workers <= 0 defaults to runtime.NumCPU.
//
// This is the fail-fast entry point for callers that need all images; the
// firmware scan engine isolates per-image failures instead.
func PrepareImages(ctx context.Context, images []*binimg.Image, workers int) ([]*PreparedImage, error) {
	if ctx == nil {
		//patchecko:allow ctxflow nil-ctx API tolerance: Background is the documented fallback root
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prepared, errs := prepareAll(ctx, images, workers)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return prepared, nil
}

// prepareAll runs the shared prepare pool, returning per-image results and
// errors in input order.
func prepareAll(ctx context.Context, images []*binimg.Image, workers int) ([]*PreparedImage, []error) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(images) {
		workers = len(images)
	}
	prepared := make([]*PreparedImage, len(images))
	errs := make([]error, len(images))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(images) || ctx.Err() != nil {
					return
				}
				prepared[i], errs[i] = prepareOne(images[i])
			}
		}()
	}
	wg.Wait()
	return prepared, errs
}

// prepareOne prepares a single image with panic containment and the
// prepare-stage fault point armed for chaos tests.
func prepareOne(im *binimg.Image) (p *PreparedImage, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, &panicError{r}
		}
	}()
	if ferr := faultinject.Fire(faultinject.PrepareFail, im.LibName); ferr != nil {
		return nil, ferr
	}
	return Prepare(im)
}

// prepareImagesIsolated prepares every image, converting failures into
// ScanErrors (in image order) instead of aborting: a broken library must
// not cost the scan of the healthy ones. Failed slots are nil.
func prepareImagesIsolated(ctx context.Context, images []*binimg.Image, workers int) ([]*PreparedImage, []ScanError) {
	prepared, errs := prepareAll(ctx, images, workers)
	var scanErrs []ScanError
	for i, err := range errs {
		if err == nil {
			continue
		}
		prepared[i] = nil
		scanErrs = append(scanErrs, ScanError{
			Library: images[i].LibName,
			Kind:    classify(err, FailPrepare),
			Msg:     err.Error(),
		})
	}
	return prepared, scanErrs
}

// runCell executes one (image, CVE, mode) grid cell with panic containment:
// a panic anywhere in the pipeline below becomes this cell's error instead
// of tearing down the scan.
func (a *Analyzer) runCell(ctx context.Context, p *PreparedImage, cveID string, mode QueryMode, validateWorkers int, sc *detector.Scorer) (scan *CVEScan, err error) {
	defer func() {
		if r := recover(); r != nil {
			scan, err = nil, &panicError{r}
		}
	}()
	faultinject.FirePanic(faultinject.ScanPanic, p.Image.LibName+"|"+cveID+"|"+mode.String())
	return a.scanImage(ctx, p, cveID, mode, validateWorkers, sc)
}

// ScanFirmware scans every CVE in the database against every library of
// the firmware image set, reporting the strongest match per CVE. Library
// images are prepared once and reused across all CVEs. Because the scanner
// cannot know a priori whether a target is patched, each image is probed
// with BOTH reference versions ("PATCHECKO will ... restart the whole
// process based on the patched version of the vulnerable function") and
// the closer match wins.
//
// The (image, CVE, mode) scan grid runs on Analyzer.Workers goroutines
// (<= 1 means sequential). Failures are isolated per cell: a failing image,
// reference or cell is recorded as a typed ScanError in Report.Errors and
// the rest of the grid completes; only context cancellation returns an
// error. The reduction is deterministic — results, errors and stats are
// identical for any worker count. Per-CVE reference work is served from the
// analyzer's single-flight cache; Report.Stats exposes the cache, isolation
// and wall-clock counters.
func (a *Analyzer) ScanFirmware(ctx context.Context, fw *Firmware) (*Report, error) {
	if ctx == nil {
		//patchecko:allow ctxflow nil-ctx API tolerance: Background is the documented fallback root
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers := a.Workers
	if workers <= 0 {
		workers = 1
	}

	ids := a.db.IDs()
	a.Obs.Emit(obs.Event{
		Kind:   obs.EvScanStarted,
		Device: fw.Device,
		Arch:   fw.Arch,
		Images: len(fw.Images),
		CVEs:   len(ids),
	})

	prepWatch := obs.StartStopwatch()
	prepared, prepErrs := prepareImagesIsolated(ctx, fw.Images, workers)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prepWall := prepWatch.Elapsed()
	a.Obs.AddStage(obs.StagePrepare, prepWall)
	a.Obs.Add(obs.CtrImagesFailed, int64(len(prepErrs)))
	uniqAddrs := make(map[cas.Addr]struct{})
	for _, p := range prepared {
		if p == nil {
			continue
		}
		a.Obs.Add(obs.CtrImagesPrepared, 1)
		a.Obs.Add(obs.CtrFuncsDisassembled, int64(p.NumFuncs()))
		for _, addr := range p.CAS {
			uniqAddrs[addr] = struct{}{}
		}
		a.Obs.Emit(obs.Event{
			Kind:    obs.EvImagePrepared,
			Library: p.Image.LibName,
			Funcs:   p.NumFuncs(),
		})
	}
	a.Obs.Add(obs.CtrFuncsUnique, int64(len(uniqAddrs)))

	// The scan grid: one task per (CVE, image) pair, taken in sequential
	// iteration order (CVE, then image). A task first asks the component
	// prefilter whether the pair is worth scanning, then runs both query
	// modes; cell (ci, pi, mi) lands at index (ci*len(prepared)+pi)*2+mi,
	// which the reduction below relies on.
	modes := [2]QueryMode{QueryVulnerable, QueryPatched}
	nTasks := len(ids) * len(prepared)
	if workers > nTasks {
		workers = nTasks
	}
	if workers < 1 {
		workers = 1
	}
	// Candidate validation inside each grid cell stays sequential when the
	// grid itself is parallel: the outer pool already saturates the cores,
	// and nesting pools would only add scheduling overhead.
	validateWorkers := a.Workers
	if workers > 1 {
		validateWorkers = 1
	}

	hits0, misses0 := a.consults.refHits.Load(), a.consults.refMisses.Load()
	dedup0 := a.DedupCounts()
	scanWatch := obs.StartStopwatch()
	scans := make([]*CVEScan, nTasks*len(modes))
	errs := make([]error, nTasks*len(modes))
	// pruned[ci*len(prepared)+pi] marks the pairs the prefilter skipped; the
	// reduction counts them and runs them after all if their row answers
	// nothing.
	pruned := make([]bool, nTasks)
	var (
		next atomic.Int64
		ran  atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One batched scoring context per worker: scratch buffers and
			// the candidate buffer are reused across every cell the worker
			// runs, so steady-state static scoring never allocates.
			sc := a.newScorer()
			for {
				t := int(next.Add(1) - 1)
				if t >= nTasks || ctx.Err() != nil {
					return
				}
				p, id := prepared[t%len(prepared)], ids[t/len(prepared)]
				if p == nil {
					continue // image failed prepare; recorded already
				}
				if a.Prefilter && !a.PrefilterKeep(p, id) {
					pruned[t] = true
					continue
				}
				for mi, mode := range modes {
					i := t*len(modes) + mi
					scan, err := a.runCell(ctx, p, id, mode, validateWorkers, sc)
					if err != nil {
						if ctx.Err() != nil {
							return
						}
						errs[i] = err
						continue
					}
					scans[i] = scan
					ran.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Deterministic reduction: fold the grid in sequential iteration order
	// so ties — and the order of recorded errors — resolve exactly as a
	// one-worker scan would. Cell failures dedupe by value: a broken CVE
	// reference observed from every image collapses to one ScanError.
	report := &Report{Device: fw.Device, Arch: fw.Arch, Results: make(map[string]*CVEScan, len(ids))}
	report.Degraded = a.StaticOnly
	report.Errors = append(report.Errors, prepErrs...)
	for _, se := range prepErrs {
		a.emitScanError(se)
	}
	stats := ScanStats{ImagesFailed: len(prepErrs)}
	seen := make(map[ScanError]bool)
	var rescueSc *detector.Scorer
	for ci, id := range ids {
		var best *CVEScan
		foldCell := func(pi, mi int) {
			i := (ci*len(prepared)+pi)*len(modes) + mi
			if err := errs[i]; err != nil {
				stats.CellsFailed++
				a.Obs.Add(obs.CtrCellsFailed, 1)
				se := cellError(id, prepared[pi].Image.LibName, modes[mi], err)
				if !seen[se] {
					seen[se] = true
					report.Errors = append(report.Errors, se)
					a.emitScanError(se)
				}
				return
			}
			scan := scans[i]
			if scan == nil {
				return
			}
			stats.CandidatesExcluded += len(scan.Excluded)
			stats.PartialSurvivors += scan.NumPartial
			a.Obs.Add(obs.CtrCellsCompleted, 1)
			a.emitCellEvents(scan)
			if best == nil || better(scan, best) {
				best = scan
			}
		}
		healthy, rowPruned, arch := 0, 0, ""
		for pi, p := range prepared {
			if p == nil {
				continue
			}
			healthy++
			if arch == "" {
				arch = p.Image.Arch
			}
			if pruned[ci*len(prepared)+pi] {
				rowPruned++
				continue
			}
			for mi := range modes {
				foldCell(pi, mi)
			}
		}
		reason := ""
		if best == nil && rowPruned > 0 {
			// Rescue pass, the one path that degrades a row: no kept cell
			// answered — the filter kept none, or every kept cell failed.
			// A pruned cell never holds the CVE's host, but it may hold a
			// lookalike the full grid would have matched, and a report
			// answer must never depend on the prefilter, so run the pruned
			// cells now, sequentially, and fold them in grid order.
			for pi := range prepared {
				if !pruned[ci*len(prepared)+pi] {
					continue
				}
				for mi, mode := range modes {
					i := (ci*len(prepared)+pi)*len(modes) + mi
					if rescueSc == nil {
						rescueSc = a.newScorer()
					}
					scan, err := a.runCell(ctx, prepared[pi], id, mode, validateWorkers, rescueSc)
					if err != nil {
						if cerr := ctx.Err(); cerr != nil {
							return nil, cerr
						}
						errs[i] = err
					} else {
						scans[i] = scan
						ran.Add(1)
					}
					foldCell(pi, mi)
				}
			}
			rowPruned = 0
			reason = "no kept cell answered; ran pruned cells"
			a.Obs.Add(obs.CtrPrefilterDegraded, 1)
		} else if a.Prefilter && healthy > 0 && a.signatureFor(id, arch) == nil {
			reason = "no signature; kept full row"
			a.Obs.Add(obs.CtrPrefilterDegraded, 1)
		}
		if a.Prefilter && healthy > 0 {
			stats.CellsPruned += rowPruned * len(modes)
			a.Obs.Emit(obs.Event{
				Kind:   obs.EvPrefilter,
				CVE:    id,
				Images: healthy,
				Pruned: rowPruned,
				Reason: reason,
			})
		}
		report.Results[id] = best
		if best != nil {
			a.emitVerdictEvent(best)
		}
	}
	hits1, misses1 := a.consults.refHits.Load(), a.consults.refMisses.Load()
	dedup1 := a.DedupCounts()
	stats.Workers = workers
	stats.Images = len(prepared)
	stats.CVEs = len(ids)
	stats.ScansRun = int(ran.Load())
	stats.CacheHits = hits1 - hits0
	stats.CacheMisses = misses1 - misses0
	stats.PrepareWall = prepWall
	stats.ScanWall = scanWatch.Elapsed()
	stats.UniqueFuncs = len(uniqAddrs)
	stats.PairsDeduped = dedup1.PairsDeduped - dedup0.PairsDeduped
	stats.PairsFromStore = dedup1.PairsFromStore - dedup0.PairsFromStore
	stats.ValidationsDeduped = dedup1.ValidationsDeduped - dedup0.ValidationsDeduped
	stats.StoreHits = dedup1.StoreHits - dedup0.StoreHits
	stats.StoreMisses = dedup1.StoreMisses - dedup0.StoreMisses
	stats.StoreInvalidated = dedup1.StoreInvalidated - dedup0.StoreInvalidated
	report.Stats = stats
	a.Obs.Add(obs.CtrRefHits, stats.CacheHits)
	a.Obs.Add(obs.CtrRefMisses, stats.CacheMisses)
	a.Obs.Add(obs.CtrCellsPruned, int64(stats.CellsPruned))
	return report, nil
}

// EmitScanEvents mirrors one completed CVEScan into the analyzer's
// trace-event stream: a cell_completed event, one candidate_excluded event
// per pruned candidate (ascending address order) and, when the scan reached
// a verdict, a verdict_reached event. ScanFirmware emits these itself from
// its deterministic reduction; standalone ScanImage callers that want the
// same trace call this once per scan, in scan order.
func (a *Analyzer) EmitScanEvents(scan *CVEScan) {
	if !a.Obs.Enabled() || scan == nil {
		return
	}
	a.emitCellEvents(scan)
	a.emitVerdictEvent(scan)
}

// emitVerdictEvent emits the verdict_reached event for a scan that matched
// a target function; an unmatched scan emits nothing.
func (a *Analyzer) emitVerdictEvent(scan *CVEScan) {
	if !scan.Matched {
		return
	}
	a.Obs.Emit(obs.Event{
		Kind:       obs.EvVerdictReached,
		CVE:        scan.CVE,
		Library:    scan.Library,
		Mode:       scan.Mode.String(),
		Addr:       scan.Match.Addr,
		Patched:    scan.Verdict.Patched,
		Confidence: scan.Verdict.Confidence,
	})
}

// emitCellEvents emits one cell_completed event for a finished grid cell
// plus one candidate_excluded event per pruned candidate, in ascending
// address order. Called only from the sequential reduction, so the event
// stream is identical for any worker count.
func (a *Analyzer) emitCellEvents(scan *CVEScan) {
	if !a.Obs.Enabled() {
		return
	}
	a.Obs.Emit(obs.Event{
		Kind:       obs.EvCellCompleted,
		CVE:        scan.CVE,
		Library:    scan.Library,
		Mode:       scan.Mode.String(),
		Pairs:      scan.TotalFuncs,
		Candidates: scan.NumCandidates,
		Survivors:  scan.NumExecuted,
		Matched:    scan.Matched,
	})
	if len(scan.Excluded) == 0 {
		return
	}
	addrs := make([]uint64, 0, len(scan.Excluded))
	for addr := range scan.Excluded {
		addrs = append(addrs, addr)
	}
	slices.Sort(addrs)
	for _, addr := range addrs {
		a.Obs.Emit(obs.Event{
			Kind:    obs.EvCandidateExcluded,
			CVE:     scan.CVE,
			Library: scan.Library,
			Mode:    scan.Mode.String(),
			Addr:    addr,
			Reason:  scan.Excluded[addr],
		})
	}
}

// emitScanError mirrors a recorded ScanError into the trace-event stream.
// The mode coordinate is meaningless on image-level failures and stays
// blank there, matching ScanError's own scoping rules.
func (a *Analyzer) emitScanError(se ScanError) {
	ev := obs.Event{
		Kind:    obs.EvScanError,
		CVE:     se.CVE,
		Library: se.Library,
		Fail:    se.Kind.String(),
		Reason:  se.Msg,
	}
	if se.CVE != "" {
		ev.Mode = se.Mode.String()
	}
	a.Obs.Emit(ev)
}
