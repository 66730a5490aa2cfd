// Package server is the resident scan service: a long-lived HTTP/JSON
// front-end over the patchecko engine with the robustness machinery a
// fleet-facing scanner needs and a one-shot CLI does not:
//
//   - admission control — a bounded job queue with typed 429/503
//     rejections, so overload is turned away at the door instead of
//     OOMing the process;
//   - retry with exponential backoff + jitter, driven by the engine's
//     ScanError taxonomy: deterministic failures (decode, prepare,
//     reference, trap) are terminal, environmental ones (panic,
//     cancellation, internal) are retried within a budget;
//   - a crash-safe job journal (see journal.go): acked submissions survive
//     a process kill and resume on the next start, producing byte-identical
//     Reports; the journal's terminal records are also the only copy of a
//     finished job, so a live daemon and a restarted one answer for the
//     same journalTerminalKeep most recent finished jobs;
//   - per-job deadlines (a hard cancel: the job fails with "deadline") and
//     cancellation, plus /healthz, /readyz and /metrics backed by
//     internal/obs.
//
// A job runs exactly the scan its submission describes: the full pipeline,
// or the static stage alone when the submission sets static_only. Everything
// that can vary under the policies above — retrying, resuming, cache
// sharing — is warmth and wall-clock only: a job's Report is byte-identical
// to the same scan run by the CLI, and the golden-report suite pins that.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/binimg"
	"repro/internal/cas"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/patchecko"
)

// Submission is the body of POST /scan: one firmware image set to scan.
// Images are raw binimg bytes (base64 in JSON, per encoding/json). The
// journal persists submissions verbatim, so a resumed job re-runs exactly
// what was acked.
type Submission struct {
	Tenant string `json:"tenant,omitempty"`
	Device string `json:"device"`
	Arch   string `json:"arch"`
	// Images are the stripped library images, in an order the caller must
	// keep stable: the engine's deterministic reduction tie-breaks on image
	// order, so byte-identical Reports require byte-identical image order.
	Images [][]byte `json:"images"`
	// DeadlineMS bounds this job's wall-clock (0 = server default).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// StaticOnly runs the static stage alone; the Report is marked Degraded.
	StaticOnly bool `json:"static_only,omitempty"`
}

// firmware decodes the submission into the engine's scan input.
func (sub *Submission) firmware() (*patchecko.Firmware, error) {
	fw := &patchecko.Firmware{Device: sub.Device, Arch: sub.Arch}
	for i, raw := range sub.Images {
		im, err := binimg.Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("image %d: %w", i, err)
		}
		fw.Images = append(fw.Images, im)
	}
	return fw, nil
}

// Config configures a Server. Model and DB are required; the zero value of
// everything else selects a sane default (see Validate for the bounds).
type Config struct {
	Model *patchecko.Model
	DB    *patchecko.DB

	// QueueDepth bounds the admission queue (default 64). A submission
	// arriving at a full queue is rejected with a typed queue_full error.
	QueueDepth int
	// Workers is the job worker pool size: > 0 = exactly that many, 0 = the
	// default (2), < 0 = no workers at all — jobs are admitted and
	// journaled but never run. The admit-only mode is how the restart tests
	// (and an operator draining a bad node) capture work for a later
	// process life.
	Workers int
	// ScanWorkers is the engine parallelism within one job (Analyzer.Workers).
	ScanWorkers int

	// RetryBudget is the number of re-attempts allowed per job beyond the
	// first (0 = no retries). Only retryable ScanErrors — panic,
	// cancellation, internal — consume it; deterministic failures never do.
	RetryBudget int
	// RetryBase is the first backoff delay; each retry doubles it up to
	// RetryMax, with ±50% jitter. Required > 0 when RetryBudget > 0.
	RetryBase time.Duration
	RetryMax  time.Duration

	// JobDeadline bounds each job's wall-clock (0 = none); a job still
	// running at its deadline fails with "deadline". A submission's own
	// deadline_ms tightens but never loosens it.
	JobDeadline time.Duration

	// JournalPath is the crash-safe job journal's file ("" = in memory
	// only: no crash safety, no resume; the 64 most recently finished jobs
	// are retained either way). It compacts past 4 MiB, or past twice what
	// its last compaction wrote when that is larger.
	JournalPath string

	// Store is the optional persistent static-score store shared by all
	// jobs. Obs is the process-level sink (nil = a private one); each job
	// additionally runs against its own traced sink, merged in at
	// termination.
	Store *cas.Store
	Obs   *obs.Metrics

	// gate, when non-nil, makes every worker consume one token from it
	// between dequeuing a job and running it. In-package tests use it to pin
	// queue occupancy deterministically (fill the queue while a worker
	// holds); production configs leave it nil.
	gate chan struct{}
	// started, when non-nil, parks every job attempt once the job is
	// running: the worker sends one token, then holds the attempt until the
	// job context ends (Close or a client cancel). In-package tests use it to
	// shut down provably mid-job; production configs leave it nil.
	started chan struct{}
}

// Validate checks the configuration bounds, returning a clear error naming
// the offending knob — these surface verbatim as patcheckod flag errors.
func (c *Config) Validate() error {
	switch {
	case c.Model == nil:
		return fmt.Errorf("server: config: Model is required")
	case c.DB == nil:
		return fmt.Errorf("server: config: DB is required")
	case c.QueueDepth < 0:
		return fmt.Errorf("server: config: queue depth must be >= 0 (0 = default), got %d", c.QueueDepth)
	case c.ScanWorkers < 0:
		return fmt.Errorf("server: config: scan workers must be >= 0 (0 = default), got %d", c.ScanWorkers)
	case c.RetryBudget < 0:
		return fmt.Errorf("server: config: retry budget must be >= 0, got %d", c.RetryBudget)
	case c.RetryBudget > 0 && c.RetryBase <= 0:
		return fmt.Errorf("server: config: retry base delay must be > 0 when the retry budget is, got %v", c.RetryBase)
	case c.RetryMax < 0:
		return fmt.Errorf("server: config: retry max delay must be >= 0, got %v", c.RetryMax)
	case c.JobDeadline < 0:
		return fmt.Errorf("server: config: job deadline must be >= 0 (0 = none), got %v", c.JobDeadline)
	}
	return nil
}

// Defaults for the zero Config values.
const (
	defaultQueueDepth = 64
	defaultWorkers    = 2
)

// Job states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// job is one admitted submission's lifecycle up to its terminal record.
type job struct {
	// record holds the id (Job), submission, tenant and outcome; its sink is
	// the per-job traced sink, merged into the server sink at termination.
	// The outcome fields are guarded by Server.mu.
	record

	cancel       context.CancelFunc
	done         chan struct{}
	clientCancel bool // cancelled by DELETE (vs. shutdown or deadline)

	state string // guarded by Server.mu
}

// Server is the resident scan service. Build one with New, mount Handler on
// an http.Server, and Close it to shut down.
type Server struct {
	cfg     Config
	cache   patchecko.RefCache // shared by every job's analyzer
	journal *Journal
	obs     *obs.Metrics

	queue chan *job
	quit  chan struct{}
	wg    sync.WaitGroup

	mu       sync.Mutex
	draining bool
	jobs     map[string]*job // jobs not yet journaled terminal
	nextID   uint64
}

// New builds the server, replays the journal, re-enqueues the jobs a
// previous process life left unfinished, and starts the worker pool. The
// jobs it finished are answered for from the journal's terminal records.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = defaultQueueDepth
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	s := &Server{
		cfg:  cfg,
		obs:  cfg.Obs,
		quit: make(chan struct{}),
		jobs: make(map[string]*job),
	}

	j, pending, err := openJournal(cfg.JournalPath, defaultJournalMax, s.obs)
	if err != nil {
		return nil, err
	}
	s.journal = j
	s.nextID = j.seq

	// The queue is sized for the admission bound, stretched if the journal
	// replayed more live jobs than the bound (a previous life's running
	// jobs resume on top of its queue). Admission still rejects at
	// QueueDepth, so the steady-state bound holds.
	depth := cfg.QueueDepth
	if len(pending) > depth {
		depth = len(pending)
	}
	s.queue = make(chan *job, depth)

	for _, rec := range pending {
		j := s.newJobLocked(rec.Job, rec.Sub)
		j.Resumed = true
		s.jobs[j.Job] = j
		s.queue <- j
		s.obs.Add(obs.CtrJobsResumed, 1)
		j.sink.Emit(obs.Event{Kind: obs.EvJobResumed, Job: j.Job, Tenant: j.Tenant})
	}

	workers := cfg.Workers
	if workers == 0 {
		workers = defaultWorkers
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// newJobLocked builds a job shell in the queued state. id == "" mints a
// fresh one (unique across process lives: the counter is seeded past the
// journal's high seq, and every admission advances the journal).
func (s *Server) newJobLocked(id string, sub *Submission) *job {
	if id == "" {
		s.nextID++
		id = fmt.Sprintf("job-%08d", s.nextID)
	}
	return &job{
		record: record{Job: id, Sub: sub, Tenant: sub.Tenant, sink: obs.NewTraced(obs.DefaultTraceCap)},
		done:   make(chan struct{}),
		state:  StateQueued,
	}
}

// Close stops admission, cancels running jobs and waits for the workers.
// Jobs interrupted here are NOT journaled terminal, so a journaled server
// resumes them on the next New — Close is the clean half of a crash.
func (s *Server) Close() error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	var cancels []context.CancelFunc
	for _, j := range s.jobs {
		if j.state == StateRunning && j.cancel != nil {
			cancels = append(cancels, j.cancel)
		}
	}
	s.mu.Unlock()
	if already {
		return nil
	}
	close(s.quit)
	for _, c := range cancels {
		c()
	}
	s.wg.Wait()
	return s.journal.Close()
}

// APIError is the typed rejection envelope every non-2xx response carries:
// {"error":{"kind":...,"msg":...,"retry_after_ms":...}}.
type APIError struct {
	Kind         string `json:"kind"`
	Msg          string `json:"msg"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

func writeErr(w http.ResponseWriter, status int, e APIError) {
	w.Header().Set("Content-Type", "application/json")
	if e.RetryAfterMS > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", (e.RetryAfterMS+999)/1000))
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]APIError{"error": e})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// maxSubmissionBytes bounds a POST /scan body.
const maxSubmissionBytes = 256 << 20

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /scan", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// Submit admits one submission, journals it, and enqueues it, returning the
// job id. It is the transport-free core of POST /scan — tests and embedded
// callers use it directly. The returned *APIError, when non-nil, is the
// typed rejection (its HTTP status is the second return).
func (s *Server) Submit(sub *Submission) (string, int, *APIError) {
	if len(sub.Images) == 0 {
		return "", http.StatusBadRequest, &APIError{Kind: "bad_request", Msg: "submission has no images"}
	}
	if sub.Arch == "" {
		return "", http.StatusBadRequest, &APIError{Kind: "bad_request", Msg: "submission has no arch"}
	}
	if _, err := sub.firmware(); err != nil {
		return "", http.StatusBadRequest, &APIError{Kind: "bad_image", Msg: err.Error()}
	}
	if err := faultinject.Fire(faultinject.AdmitFail, sub.Tenant); err != nil {
		s.obs.Add(obs.CtrJobsRejected, 1)
		return "", http.StatusServiceUnavailable, &APIError{Kind: "admission_fault", Msg: err.Error(), RetryAfterMS: 1000}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.obs.Add(obs.CtrJobsRejected, 1)
		return "", http.StatusServiceUnavailable, &APIError{Kind: "draining", Msg: "server is shutting down"}
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		s.mu.Unlock()
		s.obs.Add(obs.CtrJobsRejected, 1)
		return "", http.StatusTooManyRequests, &APIError{
			Kind:         "queue_full",
			Msg:          fmt.Sprintf("admission queue is full (%d jobs)", s.cfg.QueueDepth),
			RetryAfterMS: 2000,
		}
	}
	j := s.newJobLocked("", sub)
	s.jobs[j.Job] = j
	// Journal BEFORE acking: an append failure degrades crash-safety (it is
	// counted, and the job runs anyway) but a crash between ack and append
	// must never lose an acked job.
	s.journal.append(&record{Kind: recSubmitted, Job: j.Job, Sub: sub})
	s.queue <- j
	s.mu.Unlock()

	s.obs.Add(obs.CtrJobsAdmitted, 1)
	j.sink.Emit(obs.Event{Kind: obs.EvJobQueued, Job: j.Job, Tenant: j.Tenant})
	return j.Job, http.StatusAccepted, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sub Submission
	body := http.MaxBytesReader(w, r.Body, maxSubmissionBytes)
	if err := json.NewDecoder(body).Decode(&sub); err != nil {
		writeErr(w, http.StatusBadRequest, APIError{Kind: "bad_request", Msg: "malformed submission: " + err.Error()})
		return
	}
	id, status, apiErr := s.Submit(&sub)
	if apiErr != nil {
		writeErr(w, status, *apiErr)
		return
	}
	writeJSON(w, status, map[string]string{"job": id, "state": StateQueued})
}

// JobStatus is the GET /jobs/{id} view.
type JobStatus struct {
	Job      string    `json:"job"`
	Tenant   string    `json:"tenant,omitempty"`
	State    string    `json:"state"`
	Attempts int       `json:"attempts"`
	Resumed  bool      `json:"resumed,omitempty"`
	Degraded bool      `json:"degraded,omitempty"`
	Error    *APIError `json:"error,omitempty"`
}

// lookup finds a job in flight in s.jobs or, once it has finished, as the
// journal's terminal record; an id the journal has forgotten is gone.
func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.jobs[id]; j != nil {
		return j
	}
	s.journal.mu.Lock()
	defer s.journal.mu.Unlock()
	rec := s.journal.terminal[id]
	if rec == nil {
		return nil
	}
	j := &job{record: *rec, state: string(rec.Kind), done: make(chan struct{})}
	close(j.done)
	return j
}

func (s *Server) statusOf(j *job) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := JobStatus{
		Job:      j.Job,
		Tenant:   j.Tenant,
		State:    j.state,
		Attempts: j.Attempts,
		Resumed:  j.Resumed,
		Degraded: j.Report != nil && j.Report.Degraded,
	}
	if j.ErrMsg != "" {
		st.Error = &APIError{Kind: j.ErrKind, Msg: j.ErrMsg}
	}
	return st
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, APIError{Kind: "not_found", Msg: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, s.statusOf(j))
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, APIError{Kind: "not_found", Msg: "no such job"})
		return
	}
	s.mu.Lock()
	state, report := j.state, j.Report
	s.mu.Unlock()
	if report == nil {
		switch state {
		case StateQueued, StateRunning:
			writeErr(w, http.StatusConflict, APIError{Kind: "not_ready", Msg: "job is " + state, RetryAfterMS: 500})
		default:
			writeErr(w, http.StatusGone, APIError{Kind: "no_report", Msg: "job terminated without a report"})
		}
		return
	}
	if r.URL.Query().Get("normalize") != "" {
		// Round-trip through JSON for a deep copy, then normalize the copy:
		// the stored report stays untouched for non-normalized readers.
		var err error
		if report, err = copyReport(report); err != nil {
			writeErr(w, http.StatusInternalServerError, APIError{Kind: "internal", Msg: err.Error()})
			return
		}
		report.Normalize()
	}
	// json.Marshal + '\n' is the CLI's exact output framing; the golden
	// suite compares served bytes against CLI bytes, so keep them identical.
	data, err := json.Marshal(report)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, APIError{Kind: "internal", Msg: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(append(data, '\n'))
}

// copyReport deep-copies a Report through its JSON form. Lossless by the
// round-trip test in the golden suite.
func copyReport(r *patchecko.Report) (*patchecko.Report, error) {
	data, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	var out patchecko.Report
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, APIError{Kind: "not_found", Msg: "no such job"})
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	j.sink.WriteJSONL(w)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, APIError{Kind: "not_found", Msg: "no such job"})
		return
	}
	s.mu.Lock()
	switch j.state {
	case StateQueued:
		// The worker that eventually dequeues it sees the terminal state
		// and skips; settle it now.
		j.clientCancel = true
		s.finishLocked(j, StateCancelled, "cancelled", "cancelled while queued")
	case StateRunning:
		j.clientCancel = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, s.statusOf(j))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	full := len(s.queue) >= s.cfg.QueueDepth
	s.mu.Unlock()
	switch {
	case draining:
		writeErr(w, http.StatusServiceUnavailable, APIError{Kind: "draining", Msg: "server is shutting down"})
	case full:
		writeErr(w, http.StatusServiceUnavailable, APIError{Kind: "queue_full", Msg: "admission queue is full", RetryAfterMS: 2000})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

// metricsView is the GET /metrics body: the process-level counters (job
// sinks merge in at termination) plus live gauges.
type metricsView struct {
	Counters map[string]int64 `json:"counters"`
	Queue    struct {
		Used int `json:"used"`
		Cap  int `json:"cap"`
	} `json:"queue"`
	Jobs     map[string]int `json:"jobs"`
	RefCache struct {
		Entries int `json:"entries"`
	} `json:"ref_cache"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var v metricsView
	v.Counters = s.obs.Counters()
	v.Jobs = make(map[string]int)
	s.mu.Lock()
	v.Queue.Used = len(s.queue)
	v.Queue.Cap = s.cfg.QueueDepth
	for _, j := range s.jobs {
		v.Jobs[j.state]++
	}
	s.journal.mu.Lock()
	for _, rec := range s.journal.terminal {
		v.Jobs[string(rec.Kind)]++
	}
	s.journal.mu.Unlock()
	s.mu.Unlock()
	v.RefCache.Entries = s.cache.Len()
	writeJSON(w, http.StatusOK, v)
}

// Wait blocks until the job terminates (or ctx ends), returning its status.
func (s *Server) Wait(ctx context.Context, id string) (JobStatus, error) {
	j := s.lookup(id)
	if j == nil {
		return JobStatus{}, fmt.Errorf("server: no such job %s", id)
	}
	select {
	case <-j.done:
		return s.statusOf(j), nil
	case <-ctx.Done():
		return s.statusOf(j), ctx.Err()
	}
}

// Report returns a terminated job's report (nil while in flight, when the
// job died without one, or once the journal has forgotten the job).
func (s *Server) Report(id string) *patchecko.Report {
	j := s.lookup(id)
	if j == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.Report
}

// worker is the job execution loop: dequeue, run with retry, terminate.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case j := <-s.queue:
			s.mu.Lock()
			if j.state != StateQueued { // cancelled while queued
				s.mu.Unlock()
				continue
			}
			j.state = StateRunning
			s.mu.Unlock()
			if s.cfg.gate != nil {
				select {
				case <-s.cfg.gate:
				case <-s.quit:
					return
				}
			}
			s.runJob(j)
		}
	}
}

// runJob executes one job: fresh analyzer per attempt, retry on retryable
// ScanErrors with backoff and reference-cache invalidation.
func (s *Server) runJob(j *job) {
	fw, err := j.Sub.firmware()
	if err != nil {
		// Admission validated decode, so this is journal bit-rot or an
		// embedded caller skipping Submit — terminal either way.
		s.finish(j, StateFailed, "bad_image", err.Error())
		return
	}

	deadline := s.cfg.JobDeadline
	if d := time.Duration(j.Sub.DeadlineMS) * time.Millisecond; d > 0 && (deadline == 0 || d < deadline) {
		deadline = d
	}
	// Jobs are deliberately rooted here, not in the submitting request's
	// context: an acked job outlives its HTTP request, and shutdown cancels
	// running jobs explicitly through j.cancel (Close) rather than by
	// tearing down a shared parent.
	//patchecko:allow ctxflow job contexts outlive their requests; Close cancels them explicitly
	base := context.Background()
	var ctx context.Context
	var cancel context.CancelFunc
	if deadline > 0 {
		ctx, cancel = context.WithTimeout(base, deadline)
	} else {
		ctx, cancel = context.WithCancel(base)
	}
	defer cancel()
	s.mu.Lock()
	j.cancel = cancel
	s.mu.Unlock()

	for {
		s.mu.Lock()
		j.Attempts++
		attempt := j.Attempts
		s.mu.Unlock()
		j.sink.Emit(obs.Event{Kind: obs.EvJobStarted, Job: j.Job, Tenant: j.Tenant, Attempt: attempt})
		if s.cfg.started != nil {
			select {
			case s.cfg.started <- struct{}{}:
			case <-ctx.Done():
			}
			<-ctx.Done()
		}

		an := patchecko.NewAnalyzer(s.cfg.Model, s.cfg.DB)
		an.Workers = s.cfg.ScanWorkers
		an.SharedCache = &s.cache
		an.Store = s.cfg.Store
		an.Obs = j.sink
		an.StaticOnly = j.Sub.StaticOnly

		report, scanErr := an.ScanFirmware(ctx, fw)
		if scanErr != nil {
			switch {
			case s.cancelled(j):
				s.finish(j, StateCancelled, "cancelled", "cancelled by client")
			case s.closing():
				// Shutdown: terminate in memory but do NOT journal, so a
				// journaled server resumes this job on the next start.
				s.finish(j, StateCancelled, "shutdown", "server shut down mid-job")
			case ctx.Err() != nil:
				s.finish(j, StateFailed, "deadline", "job deadline exceeded")
			default:
				s.finish(j, StateFailed, "scan_error", scanErr.Error())
			}
			return
		}

		retryable := retryableErrors(report)
		if len(retryable) == 0 || attempt > s.cfg.RetryBudget {
			s.mu.Lock()
			j.Report = report
			s.mu.Unlock()
			s.finish(j, StateDone, "", "")
			return
		}
		// Transient failures are memoized in the shared reference cache;
		// evict the implicated CVEs so the retry actually re-runs them.
		for _, se := range retryable {
			if se.CVE != "" {
				s.cache.InvalidateCVE(se.CVE)
			}
		}
		s.obs.Add(obs.CtrJobsRetried, 1)
		j.sink.Emit(obs.Event{
			Kind: obs.EvJobRetried, Job: j.Job, Tenant: j.Tenant, Attempt: attempt,
			Reason: fmt.Sprintf("%d retryable scan errors", len(retryable)),
		})
		if !s.backoff(ctx, attempt) {
			switch {
			case s.cancelled(j):
				s.finish(j, StateCancelled, "cancelled", "cancelled by client")
			case s.closing():
				s.finish(j, StateCancelled, "shutdown", "server shut down mid-job")
			default:
				s.finish(j, StateFailed, "deadline", "job deadline exceeded during backoff")
			}
			return
		}
	}
}

// retryableErrors filters the report's isolated failures down to the kinds
// the taxonomy marks environmental (panic, cancellation, internal).
func retryableErrors(r *patchecko.Report) []patchecko.ScanError {
	var out []patchecko.ScanError
	for _, se := range r.Errors {
		if se.Retryable() {
			out = append(out, se)
		}
	}
	return out
}

// backoff sleeps the exponential-with-jitter retry delay for the given
// attempt number, returning false if the job context or the server quit
// first.
func (s *Server) backoff(ctx context.Context, attempt int) bool {
	d := s.cfg.RetryBase
	for i := 1; i < attempt && d < s.cfg.RetryMax; i++ {
		d *= 2
	}
	if s.cfg.RetryMax > 0 && d > s.cfg.RetryMax {
		d = s.cfg.RetryMax
	}
	if d <= 0 {
		return ctx.Err() == nil
	}
	// ±50% jitter de-synchronizes retry herds; it only moves wall-clock,
	// never results, so the unseeded source is fine.
	d = d/2 + time.Duration(rand.Int63n(int64(d)))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	case <-s.quit:
		return false
	}
}

// cancelled reports whether the client asked for this job's cancellation.
func (s *Server) cancelled(j *job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.clientCancel
}

func (s *Server) closing() bool {
	select {
	case <-s.quit:
		return true
	default:
		return false
	}
}

// finish settles a job into a terminal state exactly once: count, emit,
// merge the job sink into the process sink, journal the terminal record —
// which from then on answers for the job in place of s.jobs — and wake
// waiters. A job shut down mid-run is not journaled terminal, so a journaled
// server resumes it on the next start.
func (s *Server) finish(j *job, state, errKind, errMsg string) {
	s.mu.Lock()
	s.finishLocked(j, state, errKind, errMsg)
	s.mu.Unlock()
}

func (s *Server) finishLocked(j *job, state, errKind, errMsg string) {
	if j.state == StateDone || j.state == StateFailed || j.state == StateCancelled {
		return
	}
	j.state = state
	j.ErrKind, j.ErrMsg = errKind, errMsg
	switch state {
	case StateDone:
		s.obs.Add(obs.CtrJobsCompleted, 1)
	case StateCancelled:
		s.obs.Add(obs.CtrJobsCancelled, 1)
	default:
		s.obs.Add(obs.CtrJobsFailed, 1)
	}
	j.sink.Emit(obs.Event{Kind: obs.EvJobDone, Job: j.Job, Tenant: j.Tenant, Attempt: j.Attempts, State: state, Reason: errMsg})
	s.obs.Merge(j.sink)
	if errKind != "shutdown" {
		// The terminal record carries the whole outcome, report included,
		// minus the submission's images.
		rec := j.record
		rec.Kind, rec.Sub = recordKind(state), nil
		s.journal.append(&rec)
		delete(s.jobs, j.Job)
	}
	close(j.done)
}
