package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/binimg"
	"repro/internal/cas"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/patchecko"
)

// The server test fixture is the golden seed-42 / ScaleTiny pipeline: the
// same model, DB and ThingOS firmware the patchecko golden suite pins, so
// "the served report matches the committed golden bytes" is a meaningful
// cross-package assertion, not a self-comparison.
var (
	fixOnce  sync.Once
	fixModel *patchecko.Model
	fixDB    *patchecko.DB
	fixFw    *patchecko.Firmware
	fixErr   error
)

func fixtures(t *testing.T) (*patchecko.Model, *patchecko.DB, *patchecko.Firmware) {
	t.Helper()
	fixOnce.Do(func() {
		groups, err := patchecko.TrainingCorpus(patchecko.ScaleTiny, 42)
		if err != nil {
			fixErr = err
			return
		}
		cfg := patchecko.DefaultTrainConfig()
		cfg.Seed = 42
		cfg.Epochs = patchecko.ScaleTiny.Epochs
		cfg.MaxPosPerFunc = patchecko.ScaleTiny.MaxPosPerFunc
		fixModel, _, _, fixErr = patchecko.TrainDetector(groups, cfg)
		if fixErr != nil {
			return
		}
		fixDB, fixErr = patchecko.BuildVulnDB(patchecko.ScaleTiny, 42)
		if fixErr != nil {
			return
		}
		fixFw, fixErr = patchecko.BuildFirmware(patchecko.ThingOS, patchecko.ScaleTiny)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixModel, fixDB, fixFw
}

// goldenSubmission encodes the fixture firmware as a wire submission,
// preserving the engine's canonical image order.
func goldenSubmission(t *testing.T) *Submission {
	t.Helper()
	_, _, fw := fixtures(t)
	sub := &Submission{Device: fw.Device, Arch: fw.Arch}
	for _, im := range fw.Images {
		sub.Images = append(sub.Images, binimg.Encode(im))
	}
	return sub
}

// goldenBytes loads the committed golden report — the normalized seed-42
// scan bytes the patchecko golden suite maintains.
func goldenBytes(t *testing.T) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "patchecko", "testdata", "golden_report_seed42.json"))
	if err != nil {
		t.Fatalf("missing committed golden report: %v", err)
	}
	return raw
}

// baseConfig is a fully-specified small config for the fixture pipeline.
func baseConfig(t *testing.T) Config {
	model, db, _ := fixtures(t)
	return Config{
		Model:      model,
		DB:         db,
		QueueDepth: 8,
		Workers:    1,
	}
}

func newServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func submit(t *testing.T, s *Server, sub *Submission) string {
	t.Helper()
	id, status, apiErr := s.Submit(sub)
	if apiErr != nil {
		t.Fatalf("submit rejected: %d %s: %s", status, apiErr.Kind, apiErr.Msg)
	}
	return id
}

func waitDone(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	st, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("job %s did not terminate: %v (state %s)", id, err, st.State)
	}
	return st
}

// waitState polls until the job reaches the given state.
func waitState(t *testing.T, s *Server, id, state string) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		j := s.lookup(id)
		if j == nil {
			t.Fatalf("job %s vanished", id)
		}
		s.mu.Lock()
		cur := j.state
		s.mu.Unlock()
		if cur == state {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s", id, state)
}

// servedReport fetches a job's report through the HTTP handler, exactly the
// bytes a network client gets.
func servedReport(t *testing.T, s *Server, id string, normalize bool) []byte {
	t.Helper()
	url := "/jobs/" + id + "/report"
	if normalize {
		url += "?normalize=1"
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes()
}

func TestConfigValidate(t *testing.T) {
	model, db, _ := fixtures(t)
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"missing model", func(c *Config) { c.Model = nil }, "Model is required"},
		{"missing db", func(c *Config) { c.DB = nil }, "DB is required"},
		{"negative queue", func(c *Config) { c.QueueDepth = -1 }, "queue depth"},
		{"negative scan workers", func(c *Config) { c.ScanWorkers = -2 }, "scan workers"},
		{"negative retry budget", func(c *Config) { c.RetryBudget = -1 }, "retry budget"},
		{"retry without base", func(c *Config) { c.RetryBudget = 1; c.RetryBase = 0 }, "retry base delay"},
		{"negative retry max", func(c *Config) { c.RetryMax = -time.Second }, "retry max delay"},
		{"negative deadline", func(c *Config) { c.JobDeadline = -time.Second }, "job deadline"},
	}
	for _, tc := range cases {
		cfg := Config{Model: model, DB: db}
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the bad config", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name the knob (%q)", tc.name, err, tc.want)
		}
	}
	if err := (&Config{Model: model, DB: db}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
}

// TestAdmissionControl exercises every typed rejection against an
// admit-only server (Workers < 0: nothing dequeues, so queue occupancy is
// fully controlled).
func TestAdmissionControl(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Workers = -1
	cfg.QueueDepth = 2
	s := newServer(t, cfg)
	sub := goldenSubmission(t)

	// Malformed input: typed 400s.
	if _, status, apiErr := s.Submit(&Submission{Arch: sub.Arch}); apiErr == nil || status != http.StatusBadRequest || apiErr.Kind != "bad_request" {
		t.Fatalf("no-images submission: got %d %+v", status, apiErr)
	}
	if _, status, apiErr := s.Submit(&Submission{Arch: sub.Arch, Images: [][]byte{[]byte("garbage")}}); apiErr == nil || status != http.StatusBadRequest || apiErr.Kind != "bad_image" {
		t.Fatalf("undecodable submission: got %d %+v", status, apiErr)
	}

	// Injected admission outage: typed 503, nothing half-admitted.
	disarm := faultinject.Arm(faultinject.AdmitFail, "victim", errors.New("admission outage"))
	vic := *sub
	vic.Tenant = "victim"
	if _, status, apiErr := s.Submit(&vic); apiErr == nil || status != http.StatusServiceUnavailable || apiErr.Kind != "admission_fault" {
		t.Fatalf("armed admission fault: got %d %+v", status, apiErr)
	}
	disarm()

	// Queue full (depth 2, both slots held): typed 429 with retry advice.
	submit(t, s, sub)
	submit(t, s, sub)
	c1 := *sub
	_, status, apiErr := s.Submit(&c1)
	if apiErr == nil || status != http.StatusTooManyRequests || apiErr.Kind != "queue_full" {
		t.Fatalf("full queue: got %d %+v", status, apiErr)
	}
	if apiErr.RetryAfterMS <= 0 {
		t.Error("queue_full rejection carries no retry_after_ms")
	}

	if got := s.obs.Get(obs.CtrJobsAdmitted); got != 2 {
		t.Errorf("jobs_admitted = %d, want 2", got)
	}
	if got := s.obs.Get(obs.CtrJobsRejected); got != 2 {
		t.Errorf("jobs_rejected = %d, want 2 (fault, queue full)", got)
	}

	// Readiness reflects the full queue; health never does.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("/readyz with full queue = %d, want 503", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", rec.Code)
	}

	// Draining: after Close every submission is a typed 503.
	s.Close()
	if _, status, apiErr := s.Submit(&c1); apiErr == nil || status != http.StatusServiceUnavailable || apiErr.Kind != "draining" {
		t.Fatalf("draining server: got %d %+v", status, apiErr)
	}
}

// TestServedReportMatchesGolden is the service half of the golden contract:
// a report served over HTTP in normalized form is byte-identical to the
// committed golden bytes — i.e. to the CLI scanning the same firmware.
func TestServedReportMatchesGolden(t *testing.T) {
	cfg := baseConfig(t)
	cfg.ScanWorkers = 4
	s := newServer(t, cfg)
	id := submit(t, s, goldenSubmission(t))
	if st := waitDone(t, s, id); st.State != StateDone {
		t.Fatalf("job state %s, want done (error %+v)", st.State, st.Error)
	}

	if got, want := servedReport(t, s, id, true), goldenBytes(t); !bytes.Equal(got, want) {
		t.Errorf("served normalized report diverges from committed golden bytes (%d vs %d bytes)", len(got), len(want))
	}

	// The raw (non-normalized) served bytes must round-trip losslessly and
	// normalize to the same golden bytes — the serving path may not lose or
	// reorder anything.
	raw := servedReport(t, s, id, false)
	var rt patchecko.Report
	if err := json.Unmarshal(raw, &rt); err != nil {
		t.Fatal(err)
	}
	rt.Normalize()
	again, err := json.Marshal(&rt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(again, '\n'), goldenBytes(t)) {
		t.Error("raw served report does not normalize to the golden bytes")
	}

	// The job's event stream tells the whole story: queued, started, done.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/jobs/"+id+"/events", nil))
	evs := rec.Body.String()
	for _, kind := range []string{"job_queued", "job_started", "job_done", "scan_started"} {
		if !strings.Contains(evs, kind) {
			t.Errorf("job event stream missing %q", kind)
		}
	}
}

// TestRescanSharesDedupTables pins cross-job reuse: every job runs on the
// server's one reference cache, so a job scanning firmware an earlier job
// already scanned executes nothing and still serves the golden bytes.
// After InvalidateCVE drops one CVE's references and dedup rows (profiles,
// distances, verdicts), a resubmitted job recomputes that CVE alone and
// still serves the golden bytes. Two concurrent submissions of the same
// firmware single-flight each execution between them: together they
// execute exactly what one cold job does.
func TestRescanSharesDedupTables(t *testing.T) {
	executions := func(s *Server, id string) int64 { return s.lookup(id).sink.Get(obs.CtrExecutions) }
	golden := func(s *Server, id string) {
		t.Helper()
		if st := waitDone(t, s, id); st.State != StateDone {
			t.Fatalf("job %s state %s (error %+v)", id, st.State, st.Error)
		}
		if !bytes.Equal(servedReport(t, s, id, true), goldenBytes(t)) {
			t.Errorf("job %s report diverges from golden bytes", id)
		}
	}

	cfg := baseConfig(t)
	cfg.ScanWorkers = 2
	s := newServer(t, cfg)
	first := submit(t, s, goldenSubmission(t))
	golden(s, first)
	second := submit(t, s, goldenSubmission(t))
	golden(s, second)
	cold := executions(s, first)
	if cold == 0 {
		t.Fatal("first job executed nothing")
	}
	if got := executions(s, second); got != 0 {
		t.Errorf("rescan executed %d times, want 0", got)
	}
	_, db, _ := fixtures(t)
	s.cache.InvalidateCVE(db.IDs()[0])
	third := submit(t, s, goldenSubmission(t))
	golden(s, third)
	if got := executions(s, third); got == 0 || got >= cold {
		t.Errorf("rescan after invalidating %s executed %d times, want some but fewer than the cold job's %d",
			db.IDs()[0], got, cold)
	}

	cfg = baseConfig(t)
	cfg.Workers = 2
	cfg.ScanWorkers = 2
	s = newServer(t, cfg)
	a := submit(t, s, goldenSubmission(t))
	b := submit(t, s, goldenSubmission(t))
	golden(s, a)
	golden(s, b)
	if got := executions(s, a) + executions(s, b); got != cold {
		t.Errorf("concurrent jobs executed %d times together, want %d as one cold job", got, cold)
	}
}

// TestStaticOnlySubmission pins the one way a daemon report differs from
// the full pipeline's: the client asked for it. A static_only submission's
// report and every scan in it are explicitly marked Degraded and carry no
// dynamic-stage output; a full submission on the same server is not
// Degraded.
func TestStaticOnlySubmission(t *testing.T) {
	s := newServer(t, baseConfig(t))
	sub := goldenSubmission(t)
	static := *sub
	static.StaticOnly = true
	js, jf := submit(t, s, &static), submit(t, s, sub)

	st := waitDone(t, s, js)
	if st.State != StateDone || !st.Degraded {
		t.Fatalf("static-only job: state %s degraded %v, want done and degraded (error %+v)", st.State, st.Degraded, st.Error)
	}
	r := s.Report(js)
	if r == nil || !r.Degraded {
		t.Fatal("static-only job's report is not marked Degraded")
	}
	if len(r.Results) == 0 {
		t.Fatal("static-only job's report has no results")
	}
	for cve, scan := range r.Results {
		if scan != nil && !scan.Degraded {
			t.Errorf("static-only job: result %s not marked Degraded", cve)
		}
		if scan != nil && (scan.Matched || len(scan.Ranking) > 0) {
			t.Errorf("static-only job: result %s carries dynamic-stage output", cve)
		}
	}

	if st := waitDone(t, s, jf); st.State != StateDone || st.Degraded {
		t.Fatalf("full job: state %s degraded %v, want done and not degraded", st.State, st.Degraded)
	}
	if r := s.Report(jf); r == nil || r.Degraded {
		t.Error("full job's report is marked Degraded")
	}
	if !bytes.Equal(servedReport(t, s, jf, true), goldenBytes(t)) {
		t.Error("full job's report diverges from golden bytes")
	}
}

// TestJobDeadline pins the deadline as a hard cancel: a job still running
// when its deadline_ms expires fails with kind "deadline" and no report —
// it is never rerun on a cheaper pipeline.
func TestJobDeadline(t *testing.T) {
	cfg := baseConfig(t)
	cfg.started = make(chan struct{})
	s := newServer(t, cfg)
	sub := goldenSubmission(t)
	sub.DeadlineMS = 50
	id := submit(t, s, sub)
	<-cfg.started // running; the attempt is held until the deadline ends it

	st := waitDone(t, s, id)
	if st.State != StateFailed || st.Error == nil || st.Error.Kind != "deadline" {
		t.Fatalf("job status %+v, want failed with error kind deadline", st)
	}
	if st.Degraded {
		t.Error("deadline-failed job reported as degraded")
	}
	if r := s.Report(id); r != nil {
		t.Errorf("deadline-failed job has a report (degraded %v)", r.Degraded)
	}
	if got := s.obs.Get(obs.CtrJobsFailed); got != 1 {
		t.Errorf("jobs_failed = %d, want 1", got)
	}
	if got := s.obs.Get(obs.CtrJobsCompleted); got != 0 {
		t.Errorf("jobs_completed = %d, want 0", got)
	}
}

// TestRetryBackoff: a persistently panicking scan cell consumes the whole
// retry budget (the fault is armed for the job's lifetime), every attempt
// is journaled and counted, and the job still completes with the failure
// recorded — retries never turn a degraded answer into no answer.
func TestRetryBackoff(t *testing.T) {
	defer faultinject.Arm(faultinject.ScanPanic, "", errors.New("injected worker crash"))()

	cfg := baseConfig(t)
	cfg.RetryBudget = 2
	cfg.RetryBase = time.Millisecond
	cfg.RetryMax = 4 * time.Millisecond
	s := newServer(t, cfg)

	sub := goldenSubmission(t)
	sub.StaticOnly = true // panics fire in the scan grid either way; keep it fast
	id := submit(t, s, sub)
	st := waitDone(t, s, id)
	if st.State != StateDone {
		t.Fatalf("job state %s, want done", st.State)
	}
	if st.Attempts != cfg.RetryBudget+1 {
		t.Errorf("attempts = %d, want %d (budget exhausted)", st.Attempts, cfg.RetryBudget+1)
	}
	if got := s.obs.Get(obs.CtrJobsRetried); got != int64(cfg.RetryBudget) {
		t.Errorf("jobs_retried = %d, want %d", got, cfg.RetryBudget)
	}
	report := s.Report(id)
	if report == nil {
		t.Fatal("no report after retries")
	}
	found := false
	for _, se := range report.Errors {
		if se.Kind == patchecko.FailPanic {
			found = true
		}
	}
	if !found {
		t.Error("report does not record the injected panic")
	}
	// The retry loop emitted its lifecycle events.
	evs := s.lookup(id).sink.Events()
	var retried int
	for _, ev := range evs {
		if ev.Kind == obs.EvJobRetried {
			retried++
		}
	}
	if retried != cfg.RetryBudget {
		t.Errorf("job_retried events = %d, want %d", retried, cfg.RetryBudget)
	}
}

// TestCancelQueuedJob: cancelling a queued job settles it immediately and
// the worker skips its queue slot.
func TestCancelQueuedJob(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Workers = -1
	s := newServer(t, cfg)
	id := submit(t, s, goldenSubmission(t))

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("DELETE", "/jobs/"+id, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("DELETE = %d", rec.Code)
	}
	st := waitDone(t, s, id)
	if st.State != StateCancelled {
		t.Errorf("state = %s, want cancelled", st.State)
	}
	if got := s.obs.Get(obs.CtrJobsCancelled); got != 1 {
		t.Errorf("jobs_cancelled = %d, want 1", got)
	}
}

// TestCrashRestartResume is the crash-safety core: jobs captured in the
// journal by one server life are resumed by the next and produce reports
// byte-identical to the committed golden bytes — at every engine
// parallelism.
func TestCrashRestartResume(t *testing.T) {
	for _, scanWorkers := range []int{1, 4, 16} {
		journal := filepath.Join(t.TempDir(), "journal.jsonl")

		// Life 1: admit-only — the job is acked and journaled, never run.
		// Closing here is the clean analogue of a crash after ack.
		cfg := baseConfig(t)
		cfg.Workers = -1
		cfg.JournalPath = journal
		life1, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		id := submit(t, life1, goldenSubmission(t))
		life1.Close()

		// Life 2: the journal replays the job; it runs to completion.
		cfg2 := baseConfig(t)
		cfg2.ScanWorkers = scanWorkers
		cfg2.JournalPath = journal
		life2 := newServer(t, cfg2)
		if got := life2.obs.Get(obs.CtrJobsResumed); got != 1 {
			t.Fatalf("scanWorkers=%d: jobs_resumed = %d, want 1", scanWorkers, got)
		}
		st := waitDone(t, life2, id)
		if st.State != StateDone {
			t.Fatalf("scanWorkers=%d: resumed job state %s (error %+v)", scanWorkers, st.State, st.Error)
		}
		if !st.Resumed {
			t.Errorf("scanWorkers=%d: job status not marked resumed", scanWorkers)
		}
		if got, want := servedReport(t, life2, id, true), goldenBytes(t); !bytes.Equal(got, want) {
			t.Errorf("scanWorkers=%d: resumed report diverges from golden bytes", scanWorkers)
		}
		life2.Close()

		// Life 3: the completed job was journaled terminal — nothing resumes,
		// and its status, Resumed included, is the one life 2 reported.
		cfg3 := baseConfig(t)
		cfg3.Workers = -1
		cfg3.JournalPath = journal
		life3 := newServer(t, cfg3)
		if got := life3.obs.Get(obs.CtrJobsResumed); got != 0 {
			t.Errorf("scanWorkers=%d: terminal job resurrected (%d resumed)", scanWorkers, got)
		}
		if st3 := waitDone(t, life3, id); st3 != st {
			t.Errorf("scanWorkers=%d: replayed status %+v, life 2 reported %+v", scanWorkers, st3, st)
		}
		life3.Close()
	}
}

// TestMidJobRestart kills the server while a job is mid-scan: the shutdown
// does not journal a terminal record, so the next life re-runs the job from
// its submission and still produces the golden bytes.
func TestMidJobRestart(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.jsonl")

	cfg := baseConfig(t)
	cfg.JournalPath = journal
	cfg.started = make(chan struct{})
	life1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id := submit(t, life1, goldenSubmission(t))
	<-cfg.started // running, held until Close
	life1.Close() // cancels the in-flight scan; no terminal journal record

	cfg2 := baseConfig(t)
	cfg2.ScanWorkers = 4
	cfg2.JournalPath = journal
	life2 := newServer(t, cfg2)
	if got := life2.obs.Get(obs.CtrJobsResumed); got != 1 {
		t.Fatalf("jobs_resumed = %d, want 1", got)
	}
	st := waitDone(t, life2, id)
	if st.State != StateDone {
		t.Fatalf("resumed job state %s (error %+v)", st.State, st.Error)
	}
	if got, want := servedReport(t, life2, id, true), goldenBytes(t); !bytes.Equal(got, want) {
		t.Error("mid-job-restart report diverges from golden bytes")
	}
}

// TestFinishedJobReplay is the terminal half of the journal contract: a job
// that FINISHED in one server life is still served by the next — status
// intact, report byte-identical — replayed from the journal's terminal
// record instead of 404ing or re-running the scan.
func TestFinishedJobReplay(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.jsonl")

	cfg := baseConfig(t)
	cfg.ScanWorkers = 4
	cfg.JournalPath = journal
	life1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub := goldenSubmission(t)
	sub.Tenant = "replay-tenant"
	id := submit(t, life1, sub)
	st1 := waitDone(t, life1, id)
	if st1.State != StateDone {
		t.Fatalf("job state %s, want done (error %+v)", st1.State, st1.Error)
	}
	want := servedReport(t, life1, id, false)
	wantNorm := servedReport(t, life1, id, true)
	life1.Close()

	// Life 2 is admit-only: nothing can run, so anything it serves for the
	// finished job must come from the journal's terminal record.
	cfg2 := baseConfig(t)
	cfg2.Workers = -1
	cfg2.JournalPath = journal
	life2 := newServer(t, cfg2)
	if got := life2.obs.Get(obs.CtrJobsResumed); got != 0 {
		t.Fatalf("finished job was resumed (%d), want replayed as terminal", got)
	}
	st2 := waitDone(t, life2, id) // done channel is pre-closed for replayed jobs
	if st2.State != StateDone {
		t.Fatalf("replayed job state %s, want done", st2.State)
	}
	if st2.Tenant != sub.Tenant || st2.Attempts != st1.Attempts {
		t.Errorf("replayed status %+v diverges from life 1's %+v", st2, st1)
	}
	if got := servedReport(t, life2, id, false); !bytes.Equal(got, want) {
		t.Errorf("replayed raw report diverges from life 1's served bytes (%d vs %d)", len(got), len(want))
	}
	if got := servedReport(t, life2, id, true); !bytes.Equal(got, wantNorm) {
		t.Error("replayed normalized report diverges from life 1's served bytes")
	}
	if !bytes.Equal(servedReport(t, life2, id, true), goldenBytes(t)) {
		t.Error("replayed normalized report diverges from committed golden bytes")
	}
	life2.Close()

	// Life 3: replay is idempotent — the terminal record survives another
	// restart and still serves the same bytes.
	cfg3 := baseConfig(t)
	cfg3.Workers = -1
	cfg3.JournalPath = journal
	life3 := newServer(t, cfg3)
	if got := servedReport(t, life3, id, true); !bytes.Equal(got, wantNorm) {
		t.Error("second replay diverges from life 1's served bytes")
	}
	life3.Close()
}

// TestFinishedJobRetention pins the one retention rule for finished jobs: a
// job leaves the job table once its terminal record is journaled, exactly
// the journal's journalTerminalKeep most recent terminal records answer for
// finished full scans, with or without a journal file (their reports
// together far exceed the file's byte budget), and a restarted daemon gives
// every id the answer the live one gave: the same status and report bytes,
// or the same 404.
func TestFinishedJobRetention(t *testing.T) {
	get := func(s *Server, url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		return rec
	}
	// answers returns the status of every id that answers, and checks that
	// every other id is not_found on status, report and events alike.
	answers := func(s *Server, ids []string, phase string) map[string]JobStatus {
		t.Helper()
		got := make(map[string]JobStatus)
		for _, id := range ids {
			if rec := get(s, "/jobs/"+id); rec.Code == http.StatusOK {
				var st JobStatus
				if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
					t.Fatal(err)
				}
				got[id] = st
				continue
			}
			for _, url := range []string{"/jobs/" + id, "/jobs/" + id + "/report", "/jobs/" + id + "/events"} {
				rec := get(s, url)
				var body struct{ Error APIError }
				json.Unmarshal(rec.Body.Bytes(), &body)
				if rec.Code != http.StatusNotFound || body.Error.Kind != "not_found" {
					t.Errorf("%s: GET %s = %d %s, want 404 not_found", phase, url, rec.Code, rec.Body.String())
				}
			}
		}
		return got
	}

	for _, journaled := range []bool{true, false} {
		cfg := baseConfig(t)
		if journaled {
			cfg.JournalPath = filepath.Join(t.TempDir(), "journal.jsonl")
		}
		s := newServer(t, cfg)
		sub := goldenSubmission(t)
		var ids []string
		var newest JobStatus
		for i := 0; i < journalTerminalKeep+3; i++ {
			id := submit(t, s, sub)
			if newest = waitDone(t, s, id); newest.State != StateDone {
				t.Fatalf("journaled=%v: job %s state %s (error %+v)", journaled, id, newest.State, newest.Error)
			}
			ids = append(ids, id)
		}
		oldest, last := ids[0], ids[len(ids)-1]

		s.mu.Lock()
		inTable := len(s.jobs)
		s.mu.Unlock()
		if inTable != 0 {
			t.Errorf("journaled=%v: %d finished jobs still in the job table", journaled, inTable)
		}
		live := answers(s, ids, "live")
		if len(live) != journalTerminalKeep {
			t.Errorf("journaled=%v: %d finished jobs answer, want %d", journaled, len(live), journalTerminalKeep)
		}
		if _, ok := live[oldest]; ok {
			t.Errorf("journaled=%v: evicted job %s still answers", journaled, oldest)
		}
		if live[last] != newest {
			t.Errorf("journaled=%v: newest job status %+v, Wait reported %+v", journaled, live[last], newest)
		}
		var v metricsView
		if err := json.Unmarshal(get(s, "/metrics").Body.Bytes(), &v); err != nil {
			t.Fatal(err)
		}
		if v.Jobs[StateDone] != len(live) {
			t.Errorf("journaled=%v: /metrics counts %d done jobs, %d answer", journaled, v.Jobs[StateDone], len(live))
		}
		raw, norm := servedReport(t, s, last, false), servedReport(t, s, last, true)
		s.Close()
		if !journaled {
			continue
		}

		cfg.Workers = -1
		restarted := newServer(t, cfg)
		if got := answers(restarted, ids, "restarted"); !reflect.DeepEqual(got, live) {
			t.Errorf("restarted daemon answers for %d jobs, live one for %d, or their statuses differ", len(got), len(live))
		}
		if !bytes.Equal(servedReport(t, restarted, last, false), raw) || !bytes.Equal(servedReport(t, restarted, last, true), norm) {
			t.Error("newest report differs after a restart")
		}
	}
}

// TestLegacyTerminalRecordReplay pins journal compatibility: a terminal
// record written by an older build still replays as a done job serving the
// golden report, and compaction copies the line verbatim so the job
// survives it and the next restart. Older builds wrote a "shed" flag on the
// record, and per-environment RefProfiles and SurvivorProfiles on each
// result of the report.
func TestLegacyTerminalRecordReplay(t *testing.T) {
	golden := string(bytes.TrimSuffix(goldenBytes(t), []byte("\n")))
	for _, tc := range []struct {
		name, attrs, report string
	}{
		{"shed flag", `"shed":true,`, golden},
		{"profiles in report", "", withLegacyProfiles(t, golden)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			journal := filepath.Join(t.TempDir(), "journal.jsonl")
			const id = "job-00000001"
			submitted, err := json.Marshal(record{Kind: recSubmitted, Seq: 1, Job: id, Sub: goldenSubmission(t)})
			if err != nil {
				t.Fatal(err)
			}
			legacy := `{"kind":"done","seq":2,"job":"` + id + `","tenant":"old-tenant","attempts":2,` +
				tc.attrs + `"report":` + tc.report + "}\n"
			if err := os.WriteFile(journal, append(append(submitted, '\n'), legacy...), 0o644); err != nil {
				t.Fatal(err)
			}

			served := func(s *Server, phase string) {
				t.Helper()
				st := waitDone(t, s, id)
				if st.State != StateDone || st.Tenant != "old-tenant" || st.Attempts != 2 {
					t.Fatalf("%s: replayed status %+v, want done for old-tenant after 2 attempts", phase, st)
				}
				if !bytes.Equal(servedReport(t, s, id, true), goldenBytes(t)) {
					t.Errorf("%s: replayed report diverges from golden bytes", phase)
				}
			}

			cfg := baseConfig(t)
			cfg.Workers = -1
			cfg.JournalPath = journal
			life1 := newServer(t, cfg)
			if got := life1.obs.Get(obs.CtrJobsResumed); got != 0 {
				t.Fatalf("legacy terminal job was resumed (%d), want replayed as done", got)
			}
			served(life1, "replay")
			life1.journal.mu.Lock()
			life1.journal.compactLocked()
			life1.journal.mu.Unlock()
			life1.Close()
			raw, err := os.ReadFile(journal)
			if err != nil {
				t.Fatal(err)
			}
			if string(raw) != legacy {
				t.Errorf("compaction did not keep exactly the legacy terminal line:\n got %.200q\nwant %.200q", raw, legacy)
			}

			life2 := newServer(t, cfg)
			served(life2, "after compaction")
		})
	}
}

// withLegacyProfiles splices into every result of report the
// RefProfiles and SurvivorProfiles keys older builds published: one
// reference profile, and one survivor with a complete and a trapped
// environment.
func withLegacyProfiles(t *testing.T, report string) string {
	t.Helper()
	var rep map[string]json.RawMessage
	if err := json.Unmarshal([]byte(report), &rep); err != nil {
		t.Fatal(err)
	}
	var results map[string]map[string]json.RawMessage
	if err := json.Unmarshal(rep["Results"], &results); err != nil {
		t.Fatal(err)
	}
	const vec = `[0,1,1,1,0,1355.5,40,0,447.5,150.5,100,1,50.5,50.5,0,16,0,99,0,0,0]`
	spliced := 0
	for _, r := range results {
		if r == nil {
			continue
		}
		r["RefProfiles"] = json.RawMessage(`[` + vec + `]`)
		r["SurvivorProfiles"] = json.RawMessage(`{"4199776":[{"Vec":` + vec + `,"Trap":null},` +
			`{"Vec":` + vec + `,"Trap":{"Kind":1,"Addr":75184,"Msg":""}}]}`)
		spliced++
	}
	if spliced == 0 {
		t.Fatal("golden report has no result to splice profiles into")
	}
	var err error
	if rep["Results"], err = json.Marshal(results); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestChaosMatrix arms every service fault point at once — admission
// outage for one tenant, journal-disk failure for every append, store reads
// degrading to misses — on a server with a full queue, and asserts the
// ISSUE's chaos contract: no deadlock, typed rejections, and a completed
// job whose report still matches the committed golden bytes.
func TestChaosMatrix(t *testing.T) {
	defer faultinject.Arm(faultinject.JournalFail, "", errors.New("journal disk failure"))()
	defer faultinject.Arm(faultinject.StoreReadFail, "", errors.New("store read failure"))()
	defer faultinject.Arm(faultinject.AdmitFail, "chaos-tenant", errors.New("admission outage"))()

	store, err := cas.Open(t.TempDir(), "sha256:chaos", 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t)
	cfg.QueueDepth = 1
	cfg.JournalPath = filepath.Join(t.TempDir(), "journal.jsonl")
	cfg.Store = store
	cfg.ScanWorkers = 4
	cfg.gate = make(chan struct{})
	s := newServer(t, cfg)

	sub := goldenSubmission(t)
	id := submit(t, s, sub) // dequeued, parked on the gate

	// Wait for the worker to hold the job, then fill the queue behind it.
	waitState(t, s, id, StateRunning)
	queued := *sub
	filler := submit(t, s, &queued)

	// Full queue: typed rejection, not a hang.
	over := *sub
	if _, status, apiErr := s.Submit(&over); apiErr == nil || status != http.StatusTooManyRequests || apiErr.Kind != "queue_full" {
		t.Fatalf("full queue under chaos: got %d %+v", status, apiErr)
	}
	// Armed admission fault: typed rejection for exactly that tenant.
	chaos := *sub
	chaos.Tenant = "chaos-tenant"
	if _, status, apiErr := s.Submit(&chaos); apiErr == nil || status != http.StatusServiceUnavailable || apiErr.Kind != "admission_fault" {
		t.Fatalf("armed admission fault under chaos: got %d %+v", status, apiErr)
	}

	// Release the worker; both jobs must complete despite every journal
	// append failing and every store read missing.
	cfg.gate <- struct{}{}
	cfg.gate <- struct{}{}
	if st := waitDone(t, s, id); st.State != StateDone {
		t.Fatalf("chaos job state %s (error %+v)", st.State, st.Error)
	}
	filler2 := waitDone(t, s, filler)
	if filler2.State != StateDone {
		t.Fatalf("filler job state %s", filler2.State)
	}

	// Injected store faults degrade reads to misses — they may cost
	// recomputes but can never change report bytes.
	if got, want := servedReport(t, s, id, true), goldenBytes(t); !bytes.Equal(got, want) {
		t.Error("report under chaos diverges from golden bytes")
	}
	// Crash-safety degradation was counted, not hidden.
	if got := s.obs.Get(obs.CtrJournalErrors); got == 0 {
		t.Error("journal_errors = 0 despite every append failing")
	}
	if got := s.obs.Get(obs.CtrJournalOK); got != 0 {
		t.Errorf("journal_appends = %d with the journal disk down", got)
	}
}

// TestMetricsEndpoint sanity-checks the /metrics JSON shape and that job
// counters merge into the service sink at termination.
func TestMetricsEndpoint(t *testing.T) {
	cfg := baseConfig(t)
	s := newServer(t, cfg)
	sub := goldenSubmission(t)
	sub.StaticOnly = true
	id := submit(t, s, sub)
	waitDone(t, s, id)

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	var v metricsView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if v.Counters["jobs_admitted"] != 1 || v.Counters["jobs_completed"] != 1 {
		t.Errorf("job counters: admitted %d completed %d, want 1/1",
			v.Counters["jobs_admitted"], v.Counters["jobs_completed"])
	}
	// The job's scan-level counters merged in at termination.
	if v.Counters["images_prepared"] == 0 {
		t.Error("scan counters did not merge into the service sink")
	}
	if v.Jobs[StateDone] != 1 {
		t.Errorf("job state tally %v, want 1 done", v.Jobs)
	}
	if v.Queue.Cap != cfg.QueueDepth {
		t.Errorf("queue cap %d, want %d", v.Queue.Cap, cfg.QueueDepth)
	}
}
