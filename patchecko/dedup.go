// Content-addressed dedup: the scan grid's per-function work keyed by
// content address instead of by (image, function index), so duplicated
// function bodies — within one image, across a whole fleet, or across the
// successive releases a resident daemon scans — are scored and validated
// once and the results fanned out. The rows live in per-(CVE, arch, step
// limit) dedup tables on the analyzer's RefCache (engine.go), so analyzers
// sharing one cache share them too.
//
// Sharing is sound because equal content addresses imply bit-identical
// behavior for everything the shared results capture (see internal/cas).
// The content address folds in the body's instructions, its resolved-call
// closure and its static vector (and reachable rodata), so equal addresses
// give equal profiles and trap messages under every execution environment
// and step limit, equal static vectors and so bit-identical static scores,
// and equal diffengine.SigOf values, since SigOf reads only the function's
// own instructions and blocks. That is why a validation row also holds the
// body's ranking distances and differential verdict: everything else they
// read depends on the CVE alone. Per-occurrence accounting (candidate
// lists, exclusion records, validation and verdict counters) stays per
// occurrence, which is what makes reports byte-identical to scoring,
// validating and deciding every (function, CVE) pair independently.
//
// One caveat, relevant only to tests: fault injection keyed on an image
// name (faultinject.ExecTrap on a candidate image) deliberately breaks the
// "same content, same behavior" premise. The chaos suite arms execution
// faults on reference images only, which the dedup tables never serve.

package patchecko

import (
	"context"
	"slices"
	"sync/atomic"

	"repro/internal/cas"
	"repro/internal/detector"
	"repro/internal/disasm"
	"repro/internal/dynamic"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/vulndb"
)

// consultCounts classify this analyzer's own consults of its reference
// cache and dedup tables. They live on the Analyzer, not the cache, so an
// analyzer on a shared cache counts only its own work, never that of the
// analyzers it shares with. They are the source of the Report's cache and
// dedup statistics, so they work with a nil Obs sink too.
type consultCounts struct {
	refHits     atomic.Int64 // reference-profile consults answered from cache
	refMisses   atomic.Int64 // reference-profile consults that computed
	scored      atomic.Int64
	deduped     atomic.Int64
	fromStore   atomic.Int64
	storeHits   atomic.Int64
	storeMisses atomic.Int64
	storeStale  atomic.Int64
	shared      atomic.Int64 // validations served from a dedup table
}

// DedupCounts are the analyzer-lifetime dedup and delta-scan totals, the
// same classification the obs counters report. ScanFirmware snapshots them
// around the grid to fill the Report's stats; CLI callers read them after
// standalone ScanImage loops.
type DedupCounts struct {
	PairsScored        int64 // static scores computed
	PairsDeduped       int64 // static scores reused from an in-memory dedup table
	PairsFromStore     int64 // static scores answered by the persistent store
	ValidationsDeduped int64 // candidate validations reused from an in-memory dedup table
	StoreHits          int64
	StoreMisses        int64
	StoreInvalidated   int64
}

// DedupCounts returns the analyzer's dedup totals so far.
func (a *Analyzer) DedupCounts() DedupCounts {
	return DedupCounts{
		PairsScored:        a.consults.scored.Load(),
		PairsDeduped:       a.consults.deduped.Load(),
		PairsFromStore:     a.consults.fromStore.Load(),
		ValidationsDeduped: a.consults.shared.Load(),
		StoreHits:          a.consults.storeHits.Load(),
		StoreMisses:        a.consults.storeMisses.Load(),
		StoreInvalidated:   a.consults.storeStale.Load(),
	}
}

// storeKey renders a CVE's score key for the persistent store. The
// rendered form is stable — it is the on-disk contract — and
// collision-free: CVE ids and mode names cannot contain '|' and the address
// is fixed-width hex.
func storeKey(cve string, k scoreKey) string {
	return cve + "|" + k.mode.String() + "|" + k.fn.String()
}

// dedupCandidates is the static stage with per-unique-body scoring: every
// function consults the shared score for its content address in the CVE's
// dedup table, computing through the caller's batched scorer only on first
// sight. Candidate selection, ordering and observability then run per
// occurrence, so the candidate list is exactly the every-pair list of
// Model.Candidates.
func (a *Analyzer) dedupCandidates(entry *vulndb.Entry, arch string, mode QueryMode, p *PreparedImage, sc *detector.Scorer) ([]detector.Candidate, error) {
	qh, err := a.cachedQueryHalves(entry, arch, mode)
	if err != nil {
		return nil, err
	}
	uts := p.UniqueTargets(a.model)
	compute := func(i int) float64 { return sc.Pair(qh, uts, p.uniqPos[i]) }
	t := a.refcache().table(entry.ID, arch, a.StepLimit)
	var out []detector.Candidate
	for i := range p.Vecs {
		s := a.sharedScore(t, entry.ID, scoreKey{mode: mode, fn: p.CAS[i]}, i, compute)
		if s >= a.model.Threshold {
			out = append(out, detector.Candidate{Index: i, Score: s})
		}
	}
	// Same total order as Model.Candidates: score descending, index
	// ascending. Shared scores are bit-identical to computed ones, so the
	// permutation matches too.
	slices.SortFunc(out, func(x, y detector.Candidate) int {
		if x.Score != y.Score {
			if x.Score > y.Score {
				return -1
			}
			return 1
		}
		return x.Index - y.Index
	})
	a.Obs.Add(obs.CtrStaticCandidates, int64(len(out)))
	return out, nil
}

// sharedScore returns the CVE's static score for key k, serving it from
// the dedup table t, then the persistent store, then computing via
// compute(i). Exactly one consult per row computes (single-flight under the
// row mutex), so on a private cache the scored/deduped/store counters are
// deterministic for any worker count.
func (a *Analyzer) sharedScore(t *dedupTable, cve string, k scoreKey, i int, compute func(i int) float64) float64 {
	e := t.score(k)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		a.consults.deduped.Add(1)
		a.Obs.Add(obs.CtrPairsDeduped, 1)
		return e.score
	}
	var sk string
	if a.Store != nil {
		sk = storeKey(cve, k)
		switch v, st := a.Store.GetScore(sk); st {
		case cas.StatusHit:
			a.consults.storeHits.Add(1)
			a.consults.fromStore.Add(1)
			a.Obs.Add(obs.CtrStoreHits, 1)
			a.Obs.Add(obs.CtrPairsFromStore, 1)
			e.done, e.score = true, v
			return v
		case cas.StatusInvalidated:
			a.consults.storeStale.Add(1)
			a.Obs.Add(obs.CtrStoreInvalidated, 1)
		default:
			a.consults.storeMisses.Add(1)
			a.Obs.Add(obs.CtrStoreMisses, 1)
		}
	}
	v := compute(i)
	a.consults.scored.Add(1)
	a.Obs.Add(obs.CtrPairsScored, 1)
	e.done, e.score = true, v
	if a.Store != nil {
		a.Store.PutScore(sk, v)
	}
	return v
}

// dedupValidate is the dynamic stage's validation step with per-unique-body
// profiling: the candidates run on a forEach pool of workers (<= 1 runs
// them inline, in order), but each candidate's profiling is single-flighted
// by content address in the CVE's dedup table, so a body duplicated across
// cells, images and — on a shared cache — jobs executes once per (CVE,
// step limit). dynamic.Classify then reduces the outcomes per occurrence,
// counters included. rows[i] is candidate i's dedup row, which the ranking
// and the verdict read next.
func (a *Analyzer) dedupValidate(ctx context.Context, p *PreparedImage, entry *vulndb.Entry,
	cands []detector.Candidate, candFuncs []*disasm.Function, envs []*minic.Env, workers int) (
	survivors []int, profiles map[int][]dynamic.EnvProfile, excluded map[int]error, rows []*dynEntry) {
	t := a.refcache().table(entry.ID, p.Image.Arch, a.StepLimit)
	rows = make([]*dynEntry, len(cands))
	for i, c := range cands {
		rows[i] = t.validation(p.CAS[c.Index])
	}
	results := make([]dynamic.ProfileOutcome, len(cands))
	forEach(ctx, len(cands), max(workers, 1), func(_, i int) {
		results[i] = a.sharedProfile(ctx, p.Dis, candFuncs[i], rows[i], envs)
	})
	survivors, profiles, excluded = dynamic.Classify(results, a.Obs)
	return survivors, profiles, excluded, rows
}

// sharedProfile profiles one candidate through its dedup-table row e. An
// outcome the context cut short — cancelled (Ran false), or a deadline
// that surfaced as a budget trap — carries no information about the body
// and is never memoized, the same rule the reference cache follows, so a
// later scan with a live context retries.
func (a *Analyzer) sharedProfile(ctx context.Context, dis *disasm.Disassembly, fn *disasm.Function, e *dynEntry, envs []*minic.Env) dynamic.ProfileOutcome {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		a.consults.shared.Add(1)
		a.Obs.Add(obs.CtrValidationsDeduped, 1)
		return dynamic.ProfileOutcome{Profiles: e.eps, Err: e.err, Ran: true, Panicked: e.panicked}
	}
	r := dynamic.ProfileCandidate(ctx, dis, fn, envs, a.exec())
	if !r.Ran || ctx.Err() != nil {
		return r
	}
	e.done, e.eps, e.err, e.panicked = true, r.Profiles, r.Err, r.Panicked
	return r
}

// distance returns the body's ranking distance to query mode's reference
// profiles ref, computing it from the body's profiles eps on first need.
// Equal content addresses give equal profiles, so whichever cell computes
// it computes the same value.
func (e *dynEntry) distance(mode QueryMode, ref []dynamic.Profile, eps []dynamic.EnvProfile) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	m := mode - QueryVulnerable
	if !e.simDone[m] {
		e.sim[m], _ = dynamic.SimilarityEnv(ref, eps)
		e.simDone[m] = true
	}
	return e.sim[m]
}
