// Package faultinject provides deterministic, hookable fault points for
// chaos-testing the scan pipeline. Production code calls Fire (or FirePanic)
// at well-known points; tests arm faults against those points and assert
// that the pipeline degrades instead of aborting — every injected fault must
// surface as a recorded diagnostic while the rest of the scan completes.
//
// Faults are keyed: a point is armed either for one exact key (one library
// image, one reference function) or with the empty key, which matches every
// Fire at that point. Matching is by value, never by arrival order, so an
// armed fault set produces the same failures at any worker count — the
// property the engine's determinism tests rely on.
//
// The disarmed fast path is a single atomic load, so leaving the hooks
// compiled into hot paths (the emulator's execute entry, the scan workers)
// costs nothing in production.
package faultinject

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Point names one hookable location in the pipeline.
type Point string

// Registered fault points.
const (
	// DecodeCorrupt fires in binimg.Decode after the header parses, keyed
	// by the decoded library name. Arming it simulates image corruption
	// that survives the checksum (bit rot between validation and use).
	DecodeCorrupt Point = "binimg.decode"
	// PrepareFail fires in patchecko.Prepare, keyed by library name,
	// before disassembly. Arming it simulates per-image static-stage
	// failures (unrecoverable function boundaries, feature extraction).
	PrepareFail Point = "patchecko.prepare"
	// ExecTrap fires at the top of every emulator execution, keyed by
	// "<libname>:<funcname>". Arming it with a *minic.TrapError simulates
	// OOB, step-limit exhaustion or watchdog-budget traps in exactly that
	// function's executions.
	ExecTrap Point = "emu.execute"
	// ScanPanic fires inside each scan-grid worker, keyed by
	// "<libname>|<cve>|<mode>". Arming it panics the worker for exactly
	// that grid cell, exercising the engine's panic recovery.
	ScanPanic Point = "patchecko.scanworker"
	// AdmitFail fires in the scan service's admission path, keyed by
	// tenant. Arming it simulates an admission-layer outage: the submission
	// must be rejected with a typed error, never accepted half-way or hung.
	AdmitFail Point = "server.admit"
	// JournalFail fires on every job-journal append, keyed by the record
	// kind ("submitted", "done", ...). Arming it simulates journal-disk
	// failure: jobs must keep completing with crash-safety degraded and the
	// failure counted, never fail because their bookkeeping did.
	JournalFail Point = "server.journal"
	// CompidMatch fires in the component-identification prefilter's keep
	// decision, keyed by "<libname>|<cve>". Arming it simulates a broken
	// fingerprint/signature comparison for that cell: the prefilter must
	// degrade to keeping the cell (full-grid behavior, counted as
	// prefilter_degraded), never prune on a faulty match.
	CompidMatch Point = "compid.match"
	// StoreReadFail fires in cas.Store.GetScore, keyed by the entry key.
	// Arming it simulates unreadable store files: every read degrades to a
	// miss (recompute), so armed store faults may slow a scan but can never
	// change its report.
	StoreReadFail Point = "cas.storeread"
)

var (
	mu     sync.RWMutex
	faults map[Point]map[string]error
	armed  atomic.Int32 // count of armed faults; 0 = fast path
)

// Arm registers err to be returned by Fire(p, key). An empty key matches
// every Fire at the point. Arming the same (point, key) twice replaces the
// earlier fault. The returned function disarms it; tests must call it (via
// t.Cleanup or defer) so faults never leak across tests.
func Arm(p Point, key string, err error) (disarm func()) {
	if err == nil {
		panic("faultinject: Arm with nil error")
	}
	mu.Lock()
	if faults == nil {
		faults = make(map[Point]map[string]error)
	}
	if faults[p] == nil {
		faults[p] = make(map[string]error)
	}
	if _, dup := faults[p][key]; !dup {
		armed.Add(1)
	}
	faults[p][key] = err
	mu.Unlock()
	return func() {
		mu.Lock()
		if _, ok := faults[p][key]; ok {
			delete(faults[p], key)
			armed.Add(-1)
		}
		mu.Unlock()
	}
}

// Fire reports the armed fault for (p, key), or nil. The exact key wins
// over the point's wildcard. When nothing is armed anywhere this is one
// atomic load.
func Fire(p Point, key string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.RLock()
	defer mu.RUnlock()
	m := faults[p]
	if m == nil {
		return nil
	}
	if err, ok := m[key]; ok {
		return err
	}
	return m[""]
}

// FirePanic panics with the armed fault for (p, key), if any. It is the
// hook for injected worker crashes: the panic value wraps the armed error
// so recovery sites can surface it verbatim.
func FirePanic(p Point, key string) {
	if err := Fire(p, key); err != nil {
		panic(fmt.Sprintf("faultinject: %s[%s]: %v", p, key, err))
	}
}

// Active reports whether any fault is currently armed. Tests use it to
// assert cleanup; production code never needs it.
func Active() bool { return armed.Load() != 0 }
