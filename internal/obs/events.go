// Structured trace events: a flat, typed record per pipeline decision,
// retained in a bounded ring and drained as JSONL. Events are for tracing
// WHY a scan produced what it did (which candidates were excluded and why,
// which cells completed, what verdicts were reached); the counters in
// obs.go are the aggregate view of the same decisions.

package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// EventKind classifies a trace event.
type EventKind int

// Event kinds. Keep eventNames in sync.
const (
	EvScanStarted       EventKind = iota + 1 // a firmware scan began
	EvImagePrepared                          // one library image prepared cleanly
	EvCellCompleted                          // one (image, CVE, mode) grid cell completed
	EvCandidateExcluded                      // dynamic validation excluded a candidate
	EvVerdictReached                         // the differential stage decided a cell's verdict
	EvScanError                              // a typed ScanError was recorded (passthrough)
	EvPrefilter                              // one CVE row's prefilter outcome, after any rescue

	// Scan-service job lifecycle. Emitted into the job's own traced sink,
	// interleaved with the scan events above, so /jobs/{id}/events streams
	// the whole story of one submission.
	EvJobQueued  // the submission was admitted into the job queue
	EvJobStarted // a worker picked the job up (one per attempt)
	EvJobRetried // a retryable attempt failed; backing off before the next
	EvJobResumed // the job was re-enqueued from the journal after a restart
	EvJobDone    // the job terminated (State says how)
)

var eventNames = map[EventKind]string{
	EvScanStarted:       "scan_started",
	EvImagePrepared:     "image_prepared",
	EvCellCompleted:     "cell_completed",
	EvCandidateExcluded: "candidate_excluded",
	EvVerdictReached:    "verdict_reached",
	EvScanError:         "scan_error",
	EvPrefilter:         "prefilter",
	EvJobQueued:         "job_queued",
	EvJobStarted:        "job_started",
	EvJobRetried:        "job_retried",
	EvJobResumed:        "job_resumed",
	EvJobDone:           "job_done",
}

func (k EventKind) String() string {
	if s, ok := eventNames[k]; ok {
		return s
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// MarshalJSON renders the kind as its snake_case name.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON accepts the snake_case name.
func (k *EventKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for kind, name := range eventNames {
		if name == s {
			*k = kind
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", s)
}

// Event is one structured trace record. It is a flat value struct —
// emitting one copies it into the ring without allocating — and only the
// fields relevant to its Kind are populated:
//
//	scan_started:       Device, Arch, Images, CVEs
//	image_prepared:     Library, Funcs
//	cell_completed:     CVE, Library, Mode, Pairs, Candidates, Survivors, Matched
//	candidate_excluded: CVE, Library, Mode, Addr, Reason
//	verdict_reached:    CVE, Library, Mode, Addr, Patched, Confidence
//	scan_error:         CVE, Library, Mode, Fail, Reason
//	prefilter:          CVE, Images (candidate images), Pruned (images left
//	                    pruned after any rescue), Reason (set when the row
//	                    had no signature or its pruned cells were rescued)
type Event struct {
	Seq  uint64    `json:"seq"`
	Kind EventKind `json:"kind"`

	Device  string `json:"device,omitempty"`
	Arch    string `json:"arch,omitempty"`
	CVE     string `json:"cve,omitempty"`
	Library string `json:"library,omitempty"`
	Mode    string `json:"mode,omitempty"`

	Addr       uint64  `json:"addr,omitempty"`
	Images     int     `json:"images,omitempty"`
	CVEs       int     `json:"cves,omitempty"`
	Funcs      int     `json:"funcs,omitempty"`
	Pairs      int     `json:"pairs,omitempty"`
	Candidates int     `json:"candidates,omitempty"`
	Survivors  int     `json:"survivors,omitempty"`
	Pruned     int     `json:"pruned,omitempty"`
	Matched    bool    `json:"matched,omitempty"`
	Patched    bool    `json:"patched,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`

	Fail   string `json:"fail,omitempty"`   // ScanError kind name
	Reason string `json:"reason,omitempty"` // exclusion reason / error message

	// Scan-service job coordinates (job_* kinds only).
	Job     string `json:"job,omitempty"`     // job id
	Tenant  string `json:"tenant,omitempty"`  // submitting tenant
	Attempt int    `json:"attempt,omitempty"` // 1-based attempt number
	State   string `json:"state,omitempty"`   // terminal state on job_done
}

// ring is a bounded overwrite-oldest event buffer. Pushing never blocks the
// pipeline on a slow consumer: when full, the oldest event is dropped. The
// buffer grows by append up to its cap, so a sink that emits few events
// holds few.
type ring struct {
	mu   sync.Mutex
	cap  int
	buf  []Event
	next uint64 // total events ever pushed; also the next seq number
}

func newRing(cap int) *ring { return &ring{cap: cap} }

func (r *ring) push(ev Event) {
	r.mu.Lock()
	ev.Seq = r.next
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.next%uint64(r.cap)] = ev
	}
	r.next++
	r.mu.Unlock()
}

// snapshot returns the retained events in seq order plus the dropped count.
func (r *ring) snapshot() ([]Event, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	kept := n
	if kept > uint64(len(r.buf)) {
		kept = uint64(len(r.buf))
	}
	out := make([]Event, 0, kept)
	for s := n - kept; s < n; s++ {
		out = append(out, r.buf[s%uint64(len(r.buf))])
	}
	return out, n - kept
}

// Emit records an event in the ring. No-op when the sink is nil or was
// built without tracing (New rather than NewTraced).
func (m *Metrics) Emit(ev Event) {
	if m == nil || m.ring == nil {
		return
	}
	m.ring.push(ev)
}

// Events returns the retained events in emission order. Nil-safe.
func (m *Metrics) Events() []Event {
	if m == nil || m.ring == nil {
		return nil
	}
	evs, _ := m.ring.snapshot()
	return evs
}

// Dropped reports how many events the bounded ring overwrote.
func (m *Metrics) Dropped() uint64 {
	if m == nil || m.ring == nil {
		return 0
	}
	_, dropped := m.ring.snapshot()
	return dropped
}

// WriteJSONL writes the retained events as one JSON object per line, in
// emission order. Nil-safe: a no-op sink writes nothing.
func (m *Metrics) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range m.Events() {
		if err := enc.Encode(ev); err != nil {
			return fmt.Errorf("obs: %w", err)
		}
	}
	return nil
}
