package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

func testSub(tenant string) *Submission {
	return &Submission{Tenant: tenant, Device: "dev", Arch: "amd64", Images: [][]byte{[]byte("x")}}
}

// TestJournalRecoversLiveJobs pins the replay contract: submitted-without-
// terminal jobs come back in admission order, terminated ones do not. The
// "started" lines are what older builds wrote once per attempt; replay must
// still skip them.
func TestJournalRecoversLiveJobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, pending, err := openJournal(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("fresh journal replayed %d jobs", len(pending))
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(j.append(&record{Kind: recSubmitted, Job: "job-1", Sub: testSub("a")}))
	must(j.append(&record{Kind: recordKind("started"), Job: "job-1"}))
	must(j.append(&record{Kind: recSubmitted, Job: "job-2", Sub: testSub("b")}))
	must(j.append(&record{Kind: recDone, Job: "job-1"}))
	must(j.append(&record{Kind: recSubmitted, Job: "job-3", Sub: testSub("c")}))
	must(j.append(&record{Kind: recordKind("started"), Job: "job-3"}))
	must(j.append(&record{Kind: recSubmitted, Job: "job-4", Sub: testSub("d")}))
	must(j.append(&record{Kind: recCancelled, Job: "job-4"}))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, pending, err = openJournal(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, rec := range pending {
		ids = append(ids, rec.Job)
	}
	if len(ids) != 2 || ids[0] != "job-2" || ids[1] != "job-3" {
		t.Fatalf("replayed %v, want [job-2 job-3]", ids)
	}
	for _, rec := range pending {
		if rec.Sub == nil || rec.Sub.Tenant == "" {
			t.Fatalf("replayed record %s lost its submission", rec.Job)
		}
	}
}

// TestJournalCorruptTail pins crash tolerance: a torn final line (the crash
// interrupted an append) is truncated away, costing only the un-acked
// record, and the journal keeps appending afterwards.
func TestJournalCorruptTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := openJournal(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.append(&record{Kind: recSubmitted, Job: "job-1", Sub: testSub("a")}); err != nil {
		t.Fatal(err)
	}
	if err := j.append(&record{Kind: recSubmitted, Job: "job-2", Sub: testSub("b")}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Simulate the torn write: a half-record with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"kind":"submitted","seq":3,"job":"job-3","sub":{"ten`)
	f.Close()

	j2, pending, err := openJournal(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 2 {
		t.Fatalf("replayed %d jobs after torn tail, want 2", len(pending))
	}
	// The truncated journal must keep working — and the next append must not
	// collide with a seq from the lost tail.
	if err := j2.append(&record{Kind: recDone, Job: "job-1"}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, pending, err = openJournal(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].Job != "job-2" {
		t.Fatalf("post-repair replay = %v, want [job-2]", pending)
	}
}

// TestJournalCorruptMiddle: garbage before good records stops replay at the
// last trustworthy prefix rather than guessing past it.
func TestJournalCorruptMiddle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	good, _ := json.Marshal(record{Kind: recSubmitted, Seq: 1, Job: "job-1", Sub: testSub("a")})
	content := append(good, '\n')
	content = append(content, []byte("NOT JSON AT ALL\n")...)
	tail, _ := json.Marshal(record{Kind: recSubmitted, Seq: 3, Job: "job-3", Sub: testSub("c")})
	content = append(content, tail...)
	content = append(content, '\n')
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	_, pending, err := openJournal(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].Job != "job-1" {
		t.Fatalf("replay past corruption: %v, want only job-1", pending)
	}
}

// TestJournalCompaction: outgrowing the byte budget rewrites the file down
// to the live submission records and the retained terminal records,
// atomically, without losing any of them.
func TestJournalCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := openJournal(path, 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Churn far past the budget: every job terminates except the last two.
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("job-%03d", i)
		j.append(&record{Kind: recSubmitted, Job: id, Sub: testSub("t")})
		j.append(&record{Kind: recDone, Job: id})
	}
	j.append(&record{Kind: recSubmitted, Job: "job-live-1", Sub: testSub("t")})
	j.append(&record{Kind: recSubmitted, Job: "job-live-2", Sub: testSub("t")})
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// A compaction fires once the file doubles what the last one wrote, so
	// the file stays within twice the encoding of what the journal retains.
	var retained int64
	for _, rec := range append(sortedBySeq(j.live), sortedBySeq(j.terminal)...) {
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		retained += int64(len(data)) + 1
	}
	if info.Size() > 2*retained {
		t.Fatalf("journal never compacted: %d bytes on disk, %d retained", info.Size(), retained)
	}
	j.Close()
	// Reopen under a roomy budget so only the explicit compactions below run.
	re, pending, err := openJournal(path, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if len(pending) != 2 || pending[0].Job != "job-live-1" || pending[1].Job != "job-live-2" {
		t.Fatalf("post-compaction replay = %v, want the two live jobs in order", pending)
	}
	if len(re.terminal) != 40 {
		t.Fatalf("post-compaction replay kept %d finished jobs, want all 40", len(re.terminal))
	}

	// Compaction copies kept lines instead of encoding them again, so the
	// compacted file must be byte for byte the fresh encoding of the kept
	// records: for lines located at replay, lines appended since, and lines
	// appended after a torn write, whose recorded spans no longer match the
	// file and must fall back to encoding.
	compacted := func(phase string) {
		t.Helper()
		re.mu.Lock()
		re.compactLocked()
		var want []byte
		for _, rec := range append(sortedBySeq(re.live), sortedBySeq(re.terminal)...) {
			data, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			want = append(append(want, data...), '\n')
		}
		re.mu.Unlock()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: compacted journal differs from its records' encoding:\n got %q\nwant %q", phase, got, want)
		}
	}
	re.append(&record{Kind: recDone, Job: "job-live-1", Tenant: "t", Attempts: 2, ErrKind: "x", ErrMsg: "y"})
	if _, err := re.f.Write([]byte(`{"kind":"submitted","seq":`)); err != nil {
		t.Fatal(err)
	}
	re.append(&record{Kind: recSubmitted, Job: "job-live-3", Sub: testSub("t")})
	re.append(&record{Kind: recSubmitted, Job: "job-live-4", Sub: testSub("t")})
	compacted("after a torn append")
	re.append(&record{Kind: recSubmitted, Job: "job-live-5", Sub: testSub("t")})
	compacted("after a second compaction")
}

// TestJournalTerminalRetention pins the finished-job replay contract at the
// journal layer: terminal records come back in termination order with their
// outcome fields intact, retention is bounded by journalTerminalKeep (oldest
// evicted first), and compaction under a tiny byte budget loses neither live
// submissions nor finished records.
func TestJournalTerminalRetention(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := openJournal(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Finish more jobs than the retention bound.
	total := journalTerminalKeep + 10
	for i := 0; i < total; i++ {
		id := fmt.Sprintf("job-%03d", i)
		j.append(&record{Kind: recSubmitted, Job: id, Sub: testSub("t")})
		j.append(&record{Kind: recDone, Job: id, Tenant: "t", Attempts: i + 1})
	}
	j.Close()

	re, pending, err := openJournal(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	finished := sortedBySeq(re.terminal)
	if len(pending) != 0 {
		t.Fatalf("finished jobs replayed as pending: %d", len(pending))
	}
	if len(finished) != journalTerminalKeep {
		t.Fatalf("retained %d terminal records, want %d", len(finished), journalTerminalKeep)
	}
	// The survivors are the newest, in termination order, outcomes intact.
	for i, rec := range finished {
		wantIdx := total - journalTerminalKeep + i
		if want := fmt.Sprintf("job-%03d", wantIdx); rec.Job != want {
			t.Fatalf("finished[%d] = %s, want %s (newest kept, oldest evicted)", i, rec.Job, want)
		}
		if rec.Kind != recDone || rec.Tenant != "t" || rec.Attempts != wantIdx+1 {
			t.Errorf("finished[%d] lost outcome fields: %+v", i, rec)
		}
	}

	// A tiny byte budget forces compaction after compaction; every live
	// submission survives them.
	tight, _, err := openJournal(filepath.Join(t.TempDir(), "tight.jsonl"), 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	tight.append(&record{Kind: recSubmitted, Job: "job-live", Sub: testSub("t")})
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("churn-%03d", i)
		tight.append(&record{Kind: recSubmitted, Job: id, Sub: testSub("t")})
		tight.append(&record{Kind: recDone, Job: id, Tenant: "t"})
	}
	tight.Close()
	re, pending, err = openJournal(tight.path, 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	finished = sortedBySeq(re.terminal)
	if len(pending) != 1 || pending[0].Job != "job-live" {
		t.Fatalf("live job lost to terminal churn: pending = %v", pending)
	}
	if len(finished) == 0 {
		t.Error("compaction dropped every terminal record despite spare budget")
	}
	for i := 1; i < len(finished); i++ {
		if finished[i-1].Seq >= finished[i].Seq {
			t.Errorf("finished records out of seq order: %d >= %d", finished[i-1].Seq, finished[i].Seq)
		}
	}
}

// TestJournalRetentionIgnoresBudget pins the one retention rule for large
// reports: finished jobs whose records together far exceed the byte budget
// still number exactly journalTerminalKeep, in memory and after a reopen,
// so a journaled daemon answers for as many finished scans as a file-less
// one. Each record carries ~100 KB, the size of a full-scan report, and the
// small budget forces several compactions.
func TestJournalRetentionIgnoresBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	const budget = 1 << 20
	j, _, err := openJournal(path, budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := string(bytes.Repeat([]byte("r"), 100<<10))
	total := journalTerminalKeep + 16
	compactions := 0
	for i := 0; i < total; i++ {
		id := fmt.Sprintf("job-%03d", i)
		j.append(&record{Kind: recSubmitted, Job: id, Sub: testSub("t")})
		// A compaction relocates the record just appended.
		before := j.size
		done := &record{Kind: recDone, Job: id, Tenant: "t", ErrMsg: payload}
		j.append(done)
		if done.off != before {
			compactions++
		}
	}
	if compactions < 2 {
		t.Fatalf("%d compactions; the fixture must force several", compactions)
	}
	want := make([]string, 0, journalTerminalKeep)
	for i := total - journalTerminalKeep; i < total; i++ {
		want = append(want, fmt.Sprintf("job-%03d", i))
	}
	ids := func(m map[string]*record) []string {
		var out []string
		for _, rec := range sortedBySeq(m) {
			out = append(out, rec.Job)
		}
		return out
	}
	if got := ids(j.terminal); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("in memory: %d finished jobs %v, want the %d newest", len(got), got, journalTerminalKeep)
	}
	j.Close()
	re, pending, err := openJournal(path, budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if len(pending) != 0 {
		t.Errorf("finished jobs replayed as pending: %d", len(pending))
	}
	if got := ids(re.terminal); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after reopen: %d finished jobs %v, want the same %d", len(got), got, journalTerminalKeep)
	}
}

// TestJournalAppendFault: an armed journal fault degrades crash-safety —
// counted, reported to the caller — but never corrupts the file for later
// appends.
func TestJournalAppendFault(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	sink := obs.New()
	j, _, err := openJournal(path, 0, sink)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.append(&record{Kind: recSubmitted, Job: "job-1", Sub: testSub("a")}); err != nil {
		t.Fatal(err)
	}
	disarm := faultinject.Arm(faultinject.JournalFail, string(recSubmitted), errors.New("disk on fire"))
	if err := j.append(&record{Kind: recSubmitted, Job: "job-2", Sub: testSub("b")}); err == nil {
		t.Fatal("armed journal fault did not surface")
	}
	disarm()
	if j.live["job-2"] == nil {
		t.Error("a failed append dropped its record from memory")
	}
	if err := j.append(&record{Kind: recSubmitted, Job: "job-3", Sub: testSub("c")}); err != nil {
		t.Fatalf("append after fault: %v", err)
	}
	if got := sink.Get(obs.CtrJournalErrors); got != 1 {
		t.Errorf("journal_errors = %d, want 1", got)
	}
	if got := sink.Get(obs.CtrJournalOK); got != 2 {
		t.Errorf("journal_appends = %d, want 2", got)
	}
}
