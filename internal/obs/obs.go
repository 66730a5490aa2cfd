// Package obs is the pipeline's observability layer: per-stage counters and
// wall-clock totals, a bounded structured-event sink with a JSONL writer,
// and a run-manifest artifact. It is stdlib-only and safe for concurrent
// use.
//
// The paper's evaluation (§V) is all about WHERE candidates die — static
// ranking, dynamic pruning, differential verdict — so every pipeline layer
// reports through this package: functions disassembled, pairs scored,
// candidates surviving the static cutoff, environments executed and
// trapped, dynamic exclusions by reason, emulator traps by kind, and patch
// verdicts by outcome.
//
// # Disabled-by-default contract
//
// A nil *Metrics is the no-op sink: every method is nil-receiver safe and
// returns immediately, so instrumented hot paths cost one predicted branch
// and zero allocations when observability is off. Instrumentation must
// never change results — a Report produced with metrics enabled is
// byte-identical to one produced with metrics disabled (the golden-report
// suite in package patchecko pins this).
//
// # Determinism
//
// All counters are deterministic in the scan inputs: they count work items,
// not scheduling, so totals are identical at any worker count. Stage
// wall-clock totals are the only nondeterministic values. Events are
// emitted from deterministic reduction points in the engine, so the event
// stream is reproducible too; only its interleaving with reference-side
// counters varies.
package obs

import (
	"sync/atomic"
	"time"
)

// Counter identifies one pipeline counter.
type Counter int

// Pipeline counters, grouped by stage. Keep counterNames in sync.
const (
	// Prepare stage.
	CtrImagesPrepared    Counter = iota // library images that prepared cleanly
	CtrImagesFailed                     // images whose preparation failed (isolated)
	CtrFuncsDisassembled                // functions recovered across prepared images

	// Static stage.
	CtrPairsScored      // (query, target) similarity pairs pushed through the network
	CtrStaticCandidates // pairs surviving the model's static cutoff

	// Dynamic stage.
	CtrEnvsExecuted        // per-environment executions (candidates and references)
	CtrEnvsTrapped         // executions that ended in a trap
	CtrCandidatesValidated // candidates surviving input validation
	CtrCandidatesExcluded  // candidates excluded during validation (all reasons)
	CtrExcludedNoEnv       // excluded: no environment ran to completion
	CtrExcludedPanic       // excluded: the profiling worker panicked
	CtrExcludedError       // excluded: emulator-level failure

	// Emulator traps by kind.
	CtrExecutions    // emulator executions started
	CtrExecTrapped   // executions that returned a trap
	CtrExecSteps     // instructions executed, summed over executions
	CtrTrapOOB       // out-of-bounds access
	CtrTrapDivZero   // division by zero
	CtrTrapBadCall   // call to an unknown function or wrong arity
	CtrTrapStepLimit // instruction budget exhausted
	CtrTrapStack     // machine stack fault
	CtrTrapDecode    // undecodable instruction
	CtrTrapBudget    // wall-clock watchdog expired

	// Differential stage.
	CtrVerdicts          // differential verdicts reached
	CtrVerdictPatched    // ... of which: patched
	CtrVerdictVulnerable // ... of which: still vulnerable

	// Scan grid.
	CtrCellsCompleted // (image, CVE, mode) grid cells that completed
	CtrCellsFailed    // grid cells recorded as ScanErrors
	CtrRefHits        // reference-profile consults answered from cache
	CtrRefMisses      // reference-profile consults that computed

	// Dedup / delta scan. pairs_scored + pairs_deduped + pairs_from_store
	// partitions the static pair total; the store counters classify every
	// persistent-store consult.
	CtrFuncsUnique        // distinct function content addresses across prepared images
	CtrPairsDeduped       // static scores reused from the in-memory dedup cache
	CtrPairsFromStore     // static scores answered by the persistent store
	CtrValidationsDeduped // candidate validations reused from the in-memory dedup cache
	CtrStoreHits          // persistent-store consults answered with a current score
	CtrStoreMisses        // persistent-store consults with no usable entry
	CtrStoreInvalidated   // persistent-store consults invalidated by a model-hash mismatch

	// Scan service (resident server). Jobs partition at admission into
	// admitted + rejected; admitted jobs partition at termination into
	// completed + failed + cancelled. Retried/resumed annotate admitted
	// jobs and may overlap. The journal counters classify every append.
	CtrJobsAdmitted  // submissions accepted into the job queue
	CtrJobsRejected  // submissions rejected (queue full, draining, admission fault)
	CtrJobsCompleted // jobs that finished with a report
	CtrJobsFailed    // jobs that terminated without a report
	CtrJobsCancelled // jobs cancelled by the client or shutdown
	CtrJobsRetried   // retry attempts across all jobs (attempts - jobs)
	CtrJobsResumed   // jobs re-enqueued from the journal after a restart
	CtrJournalOK     // journal appends that reached disk
	CtrJournalErrors // journal appends that failed (crash-safety degraded)

	// Component-identification prefilter (grid pruning). Counted by the
	// scan's deterministic reduction, except compid.match faults, which
	// count as the grid tasks hit them.
	CtrCellsPruned       // (image, CVE, mode) grid cells skipped by the prefilter
	CtrPrefilterDegraded // prefilter degrades: faulted keep decisions, rows without a signature, rescued rows

	NumCounters
)

var counterNames = [NumCounters]string{
	CtrImagesPrepared:      "images_prepared",
	CtrImagesFailed:        "images_failed",
	CtrFuncsDisassembled:   "funcs_disassembled",
	CtrPairsScored:         "pairs_scored",
	CtrStaticCandidates:    "static_candidates",
	CtrEnvsExecuted:        "envs_executed",
	CtrEnvsTrapped:         "envs_trapped",
	CtrCandidatesValidated: "candidates_validated",
	CtrCandidatesExcluded:  "candidates_excluded",
	CtrExcludedNoEnv:       "excluded_no_env_completed",
	CtrExcludedPanic:       "excluded_panic",
	CtrExcludedError:       "excluded_error",
	CtrExecutions:          "executions",
	CtrExecTrapped:         "executions_trapped",
	CtrExecSteps:           "exec_steps",
	CtrTrapOOB:             "trap_oob",
	CtrTrapDivZero:         "trap_div_zero",
	CtrTrapBadCall:         "trap_bad_call",
	CtrTrapStepLimit:       "trap_step_limit",
	CtrTrapStack:           "trap_stack",
	CtrTrapDecode:          "trap_decode",
	CtrTrapBudget:          "trap_budget",
	CtrVerdicts:            "verdicts",
	CtrVerdictPatched:      "verdict_patched",
	CtrVerdictVulnerable:   "verdict_vulnerable",
	CtrCellsCompleted:      "cells_completed",
	CtrCellsFailed:         "cells_failed",
	CtrRefHits:             "ref_cache_hits",
	CtrRefMisses:           "ref_cache_misses",
	CtrFuncsUnique:         "funcs_unique",
	CtrPairsDeduped:        "pairs_deduped",
	CtrPairsFromStore:      "pairs_from_store",
	CtrValidationsDeduped:  "validations_deduped",
	CtrStoreHits:           "store_hits",
	CtrStoreMisses:         "store_misses",
	CtrStoreInvalidated:    "store_invalidated",
	CtrJobsAdmitted:        "jobs_admitted",
	CtrJobsRejected:        "jobs_rejected",
	CtrJobsCompleted:       "jobs_completed",
	CtrJobsFailed:          "jobs_failed",
	CtrJobsCancelled:       "jobs_cancelled",
	CtrJobsRetried:         "jobs_retried",
	CtrJobsResumed:         "jobs_resumed",
	CtrJournalOK:           "journal_appends",
	CtrJournalErrors:       "journal_errors",
	CtrCellsPruned:         "cells_pruned",
	CtrPrefilterDegraded:   "prefilter_degraded",
}

func (c Counter) String() string {
	if c < 0 || c >= NumCounters {
		return "counter(?)"
	}
	return counterNames[c]
}

// Stage identifies one pipeline stage for wall-clock accounting.
type Stage int

// Pipeline stages. Keep stageNames in sync.
const (
	StagePrepare      Stage = iota // image disassembly + feature extraction
	StageStatic                    // deep-learning candidate scoring
	StageDynamic                   // validation, profiling, ranking
	StageDifferential              // patch verdict on the top match
	NumStages
)

var stageNames = [NumStages]string{
	StagePrepare:      "prepare",
	StageStatic:       "static",
	StageDynamic:      "dynamic",
	StageDifferential: "differential",
}

func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return "stage(?)"
	}
	return stageNames[s]
}

// Metrics is the live sink: counters, per-stage wall-clock totals and an
// optional bounded event ring. The zero value is usable; a nil *Metrics is
// the no-op sink. All methods are safe for concurrent use.
type Metrics struct {
	counters [NumCounters]atomic.Int64
	stageNs  [NumStages]atomic.Int64
	ring     *ring
}

// New returns a counters-only sink (events are discarded).
func New() *Metrics { return &Metrics{} }

// NewTraced returns a sink that also retains the last cap events in a
// bounded ring buffer (DefaultTraceCap when cap <= 0). Older events are
// overwritten, never blocking the pipeline; Dropped reports how many were
// lost.
func NewTraced(cap int) *Metrics {
	if cap <= 0 {
		cap = DefaultTraceCap
	}
	return &Metrics{ring: newRing(cap)}
}

// DefaultTraceCap is the event ring capacity used when none is given.
const DefaultTraceCap = 1 << 14

// Enabled reports whether the sink is live. Instrumentation sites may use
// it to skip building expensive arguments; plain Add/Emit calls are already
// nil-safe.
func (m *Metrics) Enabled() bool { return m != nil }

// Add increments counter c by n. No-op on a nil receiver.
func (m *Metrics) Add(c Counter, n int64) {
	if m == nil {
		return
	}
	m.counters[c].Add(n)
}

// Get returns counter c's current value (0 on a nil receiver).
func (m *Metrics) Get(c Counter) int64 {
	if m == nil {
		return 0
	}
	return m.counters[c].Load()
}

// AddStage accumulates wall-clock time into a stage total. No-op on nil.
func (m *Metrics) AddStage(s Stage, d time.Duration) {
	if m == nil {
		return
	}
	m.stageNs[s].Add(int64(d))
}

// Stopwatch measures stage wall-clock. It is the deterministic packages'
// single sanctioned clock: stage timing is the one documented
// nondeterministic output (see the package comment), so the lint suite's
// determinism analyzer allows exactly these two sites and bans time.Now
// everywhere else in scope. Engine code must read the clock through a
// Stopwatch, never directly.
type Stopwatch struct{ start time.Time }

// StartStopwatch reads the clock once; Elapsed measures from that instant.
func StartStopwatch() Stopwatch {
	//patchecko:allow determinism stage wall-clock is the documented nondeterministic output
	return Stopwatch{start: time.Now()}
}

// Elapsed returns the wall-clock time since the stopwatch started.
func (w Stopwatch) Elapsed() time.Duration {
	//patchecko:allow determinism stage wall-clock is the documented nondeterministic output
	return time.Since(w.start)
}

// StageNs returns the accumulated wall-clock nanoseconds of a stage.
func (m *Metrics) StageNs(s Stage) int64 {
	if m == nil {
		return 0
	}
	return m.stageNs[s].Load()
}

// Merge folds another sink's counters and stage wall-clock totals into this
// one. The scan service runs each job against its own traced sink (so the
// job's event stream and counters are queryable in isolation) and merges the
// job sink into the process-level sink when the job terminates; /metrics
// then reports fleet-wide totals. Events are NOT merged — they stay with
// the job. Nil-safe on both sides.
func (m *Metrics) Merge(src *Metrics) {
	if m == nil || src == nil {
		return
	}
	for c := Counter(0); c < NumCounters; c++ {
		if v := src.counters[c].Load(); v != 0 {
			m.counters[c].Add(v)
		}
	}
	for s := Stage(0); s < NumStages; s++ {
		if v := src.stageNs[s].Load(); v != 0 {
			m.stageNs[s].Add(v)
		}
	}
}

// Counters snapshots every counter by name, zeros included, so consumers
// can sum and cross-check without knowing the Counter enum.
func (m *Metrics) Counters() map[string]int64 {
	out := make(map[string]int64, NumCounters)
	for c := Counter(0); c < NumCounters; c++ {
		var v int64
		if m != nil {
			v = m.counters[c].Load()
		}
		out[counterNames[c]] = v
	}
	return out
}
