// Crash-safe job journal: an append-only JSONL file recording every job's
// admission and termination, so a process restart can resume the jobs it
// was killed under and serve the ones it finished. Its terminal records are
// also the only in-memory home of a finished job, in every process life: a
// job the journal has forgotten is gone, live or restarted. A journal with
// no path keeps the same records under the same bound and does no I/O. The
// format follows the cas.Store playbook — the journal is bookkeeping, never
// an authority over results:
//
//   - every append is written and fsynced BEFORE the submission is
//     acknowledged, so an acked job is never lost to a crash;
//   - a torn final line (the crash happened mid-append) is detected on open
//     and truncated away — the corrupt tail costs at most the one record
//     that was never acked;
//   - rotation is compaction: when the file outgrows its budget — or twice
//     what the last compaction wrote, whichever is larger — it is
//     rewritten to hold the live (non-terminal) jobs and the retained
//     terminal records, via temp file + rename, so readers never observe a
//     half-rotated journal;
//   - append failures (disk full, injected faults) degrade crash-safety and
//     are counted, but never fail the job they describe: the record is kept
//     in memory all the same.
package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/patchecko"
)

// recordKind classifies one journal record.
type recordKind string

// Journal record kinds. A job contributes one "submitted" record (carrying
// the full submission so the job can be re-run from the journal alone) and
// exactly one terminal record, whose kind is the job's final state. Older
// builds also wrote a "started" record per attempt; replay skips those
// lines and compaction drops them.
const (
	recSubmitted recordKind = "submitted"
	recDone      recordKind = StateDone
	recFailed    recordKind = StateFailed
	recCancelled recordKind = StateCancelled
)

// terminal reports whether the record kind ends a job's journal lifetime.
func (k recordKind) terminal() bool {
	return k == recDone || k == recFailed || k == recCancelled
}

// record is one journal line. It is also a job's identity and outcome in
// memory: a job embeds one, and the copy its terminal line is written from
// answers for the job once it has finished.
type record struct {
	Kind recordKind  `json:"kind"`
	Seq  uint64      `json:"seq"`
	Job  string      `json:"job"`
	Sub  *Submission `json:"sub,omitempty"` // written on submitted lines only

	// Terminal records carry the job's outcome so a restarted process can
	// serve its status and report without re-running the scan. Reports are
	// verbatim Report JSON; replay materializes them as finished jobs.
	// Lines from older builds may carry keys no longer listed here (such as
	// "shed"): decoding ignores them, and compaction copies those lines
	// verbatim.
	Tenant   string            `json:"tenant,omitempty"`
	Attempts int               `json:"attempts,omitempty"`
	Resumed  bool              `json:"resumed,omitempty"` // re-enqueued from the journal after a restart
	Report   *patchecko.Report `json:"report,omitempty"`
	ErrKind  string            `json:"err_kind,omitempty"`
	ErrMsg   string            `json:"err_msg,omitempty"`

	// sink is the job's traced sink, held in memory only: a job finished in
	// this process life serves its events, a replayed one serves none.
	sink *obs.Metrics

	// off and n locate the record's line in the current journal file, so
	// compaction copies the line instead of encoding the record again.
	off, n int64
}

// Journal is the job journal: its records in memory, and the append-only
// JSONL file behind them unless path is empty. Safe for concurrent use.
type Journal struct {
	mu   sync.Mutex
	path string
	f    *os.File
	size int64
	max  int64
	// compacted is the size the last compaction wrote: the file compacts
	// again once it doubles that, so retained reports larger than the
	// budget are not rewritten on every append.
	compacted int64
	seq       uint64
	// live maps job id to its submission record for every job that has been
	// admitted but not terminated; compaction always keeps these, and
	// recovery re-enqueues them.
	live map[string]*record
	// terminal maps job id to its terminal record (outcome, report, trace)
	// for the most recently finished jobs, bounded by journalTerminalKeep;
	// the server answers for finished jobs from here alone.
	terminal map[string]*record
	obs      *obs.Metrics
}

// defaultJournalMax bounds the journal when the caller does not choose a
// rotation budget.
const defaultJournalMax = 4 << 20

// journalTerminalKeep bounds how many finished jobs every daemon, journaled
// or not, answers for: the journal retains this many terminal records and
// forgets the oldest first.
const journalTerminalKeep = 64

// openJournal opens (creating if needed) the journal at path and replays it
// (path "" = a file-less journal: nothing to replay, no I/O). pending are
// the live — submitted, never terminated — jobs in admission order, ready to
// resume; the retained terminal records stay in j.terminal. maxBytes is the
// compaction threshold (<= 0 selects defaultJournalMax). A corrupt tail is
// truncated in place; corruption anywhere else stops replay at the last good
// line, because everything after it is untrustworthy.
func openJournal(path string, maxBytes int64, sink *obs.Metrics) (j *Journal, pending []*record, err error) {
	if maxBytes <= 0 {
		maxBytes = defaultJournalMax
	}
	j = &Journal{path: path, max: maxBytes, live: make(map[string]*record), terminal: make(map[string]*record), obs: sink}
	if path == "" {
		return j, nil, nil
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("server: journal: %w", err)
		}
	}

	raw, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("server: journal: %w", err)
	}
	var order []string
	good := 0 // byte offset of the end of the last parseable line
	for off := 0; off < len(raw); {
		nl := bytes.IndexByte(raw[off:], '\n')
		if nl < 0 {
			break // torn final line: the crash interrupted an append
		}
		line := raw[off : off+nl]
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil || rec.Job == "" {
			break
		}
		rec.off, rec.n = int64(off), int64(nl+1)
		off += nl + 1
		good = off
		if rec.Seq > j.seq {
			j.seq = rec.Seq
		}
		switch {
		case rec.Kind == recSubmitted && rec.Sub != nil:
			if _, dup := j.live[rec.Job]; !dup {
				order = append(order, rec.Job)
			}
			r := rec
			j.live[rec.Job] = &r
		case rec.Kind.terminal():
			delete(j.live, rec.Job)
			r := rec
			j.terminal[rec.Job] = &r
			j.trimTerminalLocked()
		}
	}
	if good < len(raw) {
		if err := os.Truncate(path, int64(good)); err != nil {
			return nil, nil, fmt.Errorf("server: journal: truncating corrupt tail: %w", err)
		}
	}
	j.size = int64(good)

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("server: journal: %w", err)
	}
	j.f = f

	pending = make([]*record, 0, len(j.live))
	for _, id := range order {
		if rec, ok := j.live[id]; ok {
			pending = append(pending, rec)
		}
	}
	return j, pending, nil
}

// trimTerminalLocked evicts the oldest terminal records beyond the retention
// bound. Callers hold j.mu (or own j exclusively during replay).
func (j *Journal) trimTerminalLocked() {
	for len(j.terminal) > journalTerminalKeep {
		var oldest *record
		for _, rec := range j.terminal {
			if oldest == nil || rec.Seq < oldest.Seq {
				oldest = rec
			}
		}
		delete(j.terminal, oldest.Job)
	}
}

// append assigns rec.Seq, keeps the record, and — for a journal with a
// file — writes and fsyncs it and rotates if the file outgrew its budget.
// The returned error is informational: the record is kept and the failure
// counted either way, and callers move on — a job must never fail because
// its bookkeeping did.
func (j *Journal) append(rec *record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	rec.Seq = j.seq
	switch {
	case rec.Kind == recSubmitted:
		j.live[rec.Job] = rec
	case rec.Kind.terminal():
		delete(j.live, rec.Job)
		j.terminal[rec.Job] = rec
		j.trimTerminalLocked()
	}
	if j.path == "" {
		return nil
	}
	if err := j.writeLocked(rec); err != nil {
		j.obs.Add(obs.CtrJournalErrors, 1)
		return err
	}
	j.obs.Add(obs.CtrJournalOK, 1)
	if j.size > max(j.max, 2*j.compacted) {
		j.compactLocked()
	}
	return nil
}

func (j *Journal) writeLocked(rec *record) error {
	if err := faultinject.Fire(faultinject.JournalFail, string(rec.Kind)); err != nil {
		return err
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if _, err := j.f.Write(data); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	rec.off, rec.n = j.size, int64(len(data))
	j.size += rec.n
	return nil
}

// compactLocked rewrites the journal to hold the live jobs' submission
// records plus the retained terminal records, atomically (temp file +
// rename). Kept lines are copied from the current file, read once, rather
// than encoded again. On any failure the original file keeps working —
// compaction is retried after the next append. Callers hold j.mu.
func (j *Journal) compactLocked() {
	raw, _ := os.ReadFile(j.path) // unreadable: every line is encoded afresh
	recs := append(sortedBySeq(j.live), sortedBySeq(j.terminal)...)
	lines, ok := linesOf(raw, recs)
	if !ok {
		return
	}

	tmp, err := os.CreateTemp(filepath.Dir(j.path), "journal-*")
	if err != nil {
		return
	}
	w := bufio.NewWriter(tmp)
	ok = true
	for _, line := range lines {
		if _, err := w.Write(line); err != nil {
			ok = false
			break
		}
	}
	if ok {
		ok = w.Flush() == nil && tmp.Sync() == nil
	}
	if cerr := tmp.Close(); cerr != nil {
		ok = false
	}
	if !ok {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		os.Remove(tmp.Name())
		return
	}
	var size int64
	for i, rec := range recs {
		rec.off, rec.n = size, int64(len(lines[i]))
		size += rec.n
	}
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// The compacted file is in place but unappendable; keep the old
		// handle (its writes land in the unlinked inode and are lost, which
		// is the degraded-crash-safety mode the error counter reports).
		j.obs.Add(obs.CtrJournalErrors, 1)
		return
	}
	j.f.Close()
	j.f = f
	j.size, j.compacted = size, size
}

// linesOf renders records as newline-terminated JSONL lines. A record's
// line is copied from raw, the journal file as compaction read it, when its
// recorded span there is one whole line opening with the record's kind and
// seq; otherwise — a torn append shifts every later record's span — the
// record is encoded afresh.
func linesOf(raw []byte, recs []*record) ([][]byte, bool) {
	lines := make([][]byte, len(recs))
	for i, rec := range recs {
		if end := rec.off + rec.n; rec.n > 0 && end <= int64(len(raw)) {
			line := raw[rec.off:end]
			if (rec.off == 0 || raw[rec.off-1] == '\n') && bytes.IndexByte(line, '\n') == len(line)-1 &&
				bytes.HasPrefix(line, fmt.Appendf(nil, `{"kind":%q,"seq":%d,`, rec.Kind, rec.Seq)) {
				lines[i] = line
				continue
			}
		}
		data, err := json.Marshal(rec)
		if err != nil {
			return nil, false
		}
		lines[i] = append(data, '\n')
	}
	return lines, true
}

// sortedBySeq returns the map's records in seq order.
func sortedBySeq(m map[string]*record) []*record {
	recs := make([]*record, 0, len(m))
	for _, rec := range m {
		recs = append(recs, rec)
	}
	for i := 1; i < len(recs); i++ {
		for k := i; k > 0 && recs[k-1].Seq > recs[k].Seq; k-- {
			recs[k-1], recs[k] = recs[k], recs[k-1]
		}
	}
	return recs
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
