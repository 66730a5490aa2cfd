package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/binimg"
	"repro/internal/cas"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/patchecko"
)

// A workload is one named set of generated inputs and the closed loop that
// drives them through the program.
type workload struct {
	name string
	// build generates the workload's inputs from the workload seed and
	// readies the program (for daemon-rescan: starts the server with its
	// files in dir).
	build func(w *world, seed int64, dir string) (runner, error)
}

// How many firmwares a device-scan or fleet-triage run rotates through. One
// firmware's cost depends on its seed by about 5% and its accuracy, a share
// of only 25 CVEs, by about 15%; averaging over several per run keeps one
// seed's figures close to the next seed's. Fleet ops are short, so
// fleet-triage affords more inputs for its noisier accuracy.
const (
	deviceInputs = 3
	fleetInputs  = 5
)

var workloads = []workload{
	{name: "device-scan", build: newDeviceScan},
	{name: "fleet-triage", build: newFleetTriage},
	{name: "daemon-rescan", build: newDaemonRescan},
}

func workloadByName(name string) (workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want device-scan, fleet-triage or daemon-rescan)", name)
}

// runner drives one workload. A round is one step of the closed loop: one
// op per client, every client waiting for its reply.
type runner interface {
	// warmup runs one discarded round and records what later ops must
	// reproduce.
	warmup(ctx context.Context) error
	// round runs one round. traced attaches counter sinks to the ops and
	// returns what they counted.
	round(ctx context.Context, traced bool) roundResult
	// cycle is the number of rounds after which every input has had the
	// same number of ops.
	cycle() int
	// probeImages are the inputs the per-layer probes time calls on.
	probeImages() []*patchecko.Image
	// serverLayer returns the server layer's spans and counters, given the
	// traced rounds' ops and the counters they recorded.
	serverLayer(ctx context.Context, tops []opResult, counters map[string]int64, dir string) (serverStats, error)
	// close stops everything the runner started.
	close() error
}

// opResult is one op's outcome.
type opResult struct {
	latency  time.Duration
	err      error   // nil when the op passed every output check
	accuracy float64 // share of ground-truth CVEs answered correctly
	match    float64 // share of ground-truth CVEs matched to their true host function
	stats    patchecko.ScanStats
	// Server spans (daemon jobs only).
	submit    time.Duration
	queueWait time.Duration // job latency minus the report's prepare and scan walls
}

type roundResult struct {
	ops []opResult
	// counters and stageNs are what the round's ops recorded in their obs
	// sinks; filled on traced rounds (and always for daemon jobs, whose
	// server counts unconditionally).
	counters map[string]int64
	stageNs  [obs.NumStages]int64
}

// serverStats are the server layer's per-layer figures.
type serverStats struct {
	submit, queueWait []float64 // seconds, one per job
	jobs              int
	counters          map[string]int64
}

// reportDigest is the SHA-256 of the normalized report's JSON. Normalize
// zeroes every field that legitimately varies between identical scans, so
// equal inputs must give equal digests. It mutates r.
func reportDigest(r *patchecko.Report) (string, error) {
	r.Normalize()
	b, err := json.Marshal(r)
	if err != nil {
		return "", fmt.Errorf("report does not marshal: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// scanRunner is the single-client ScanFirmware loop behind device-scan and
// fleet-triage: op k scans firmware k mod len(fws) with a fresh analyzer.
type scanRunner struct {
	w          *world
	fws        []*patchecko.Firmware
	staticOnly bool
	grade      func(*patchecko.Firmware, *patchecko.Report) float64
	want       []string            // normalized report digest of each firmware's warm-up op
	next       int                 // ops run so far
	last       *patchecko.Analyzer // resident state: the last op's analyzer
}

func newScanRunner(w *world, seed int64, n int, gen func(inputSeeds) (*patchecko.Firmware, error)) (*scanRunner, error) {
	r := &scanRunner{w: w}
	for _, s := range deriveInputs(seed, w.db.IDs(), n) {
		fw, err := gen(s)
		if err != nil {
			return nil, err
		}
		r.fws = append(r.fws, fw)
	}
	return r, nil
}

func newDeviceScan(w *world, seed int64, _ string) (runner, error) {
	r, err := newScanRunner(w, seed, deviceInputs, deviceFirmware)
	if err != nil {
		return nil, err
	}
	r.grade = verdictAccuracy
	return r, nil
}

func newFleetTriage(w *world, seed int64, _ string) (runner, error) {
	r, err := newScanRunner(w, seed, fleetInputs, fleetFirmware)
	if err != nil {
		return nil, err
	}
	r.staticOnly, r.grade = true, candidateAccuracy
	return r, nil
}

// op scans firmware k.
func (r *scanRunner) op(ctx context.Context, k int, sink *obs.Metrics) (opResult, string) {
	an := patchecko.NewAnalyzer(r.w.model, r.w.db)
	an.Workers = runtime.NumCPU()
	an.StaticOnly = r.staticOnly
	an.Obs = sink
	fw := r.fws[k]
	start := time.Now()
	rep, err := an.ScanFirmware(ctx, fw)
	res := opResult{latency: time.Since(start)}
	r.last = an
	if err != nil {
		res.err = fmt.Errorf("ScanFirmware: %w", err)
		return res, ""
	}
	res.stats = rep.Stats
	res.accuracy = r.grade(fw, rep)
	res.match = matchAccuracy(fw, rep)
	digest, derr := reportDigest(rep)
	switch {
	case len(rep.Errors) > 0:
		res.err = fmt.Errorf("report carries %d scan errors, first: %v", len(rep.Errors), rep.Errors[0])
	case rep.Degraded != r.staticOnly:
		res.err = fmt.Errorf("report Degraded = %v, want %v", rep.Degraded, r.staticOnly)
	case derr != nil:
		res.err = derr
	case k < len(r.want) && digest != r.want[k]:
		res.err = fmt.Errorf("normalized report digest %.12s differs from the warm-up op's %.12s", digest, r.want[k])
	}
	return res, digest
}

// warmup runs one discarded op per firmware.
func (r *scanRunner) warmup(ctx context.Context) error {
	for k := range r.fws {
		res, digest := r.op(ctx, k, nil)
		if res.err != nil {
			return fmt.Errorf("warm-up op: %w", res.err)
		}
		r.want = append(r.want, digest)
	}
	return nil
}

func (r *scanRunner) round(ctx context.Context, traced bool) roundResult {
	var sink *obs.Metrics
	if traced {
		sink = obs.New()
	}
	res, _ := r.op(ctx, r.next%len(r.fws), sink)
	r.next++
	rr := roundResult{ops: []opResult{res}}
	if traced {
		rr.counters = sink.Counters()
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			rr.stageNs[st] = sink.StageNs(st)
		}
	}
	return rr
}

func (r *scanRunner) cycle() int { return len(r.fws) }

func (r *scanRunner) probeImages() []*patchecko.Image { return r.fws[0].Images }

// serverLayer probes the server with one static-only job of this
// workload's firmware on a fresh server: the scan workloads do not run the
// server themselves, so this measures what routing their input through it
// costs.
func (r *scanRunner) serverLayer(ctx context.Context, _ []opResult, _ map[string]int64, dir string) (serverStats, error) {
	d, err := startDaemon(r.w, filepath.Join(dir, "server-probe"))
	if err != nil {
		return serverStats{}, err
	}
	fw := r.fws[0]
	sub := server.Submission{Device: fw.Device, Arch: fw.Arch, StaticOnly: true}
	for _, im := range fw.Images {
		sub.Images = append(sub.Images, binimg.Encode(im))
	}
	res, _ := d.job(ctx, &sub, "probe")
	st := serverStats{
		submit:    []float64{res.submit.Seconds()},
		queueWait: []float64{res.queueWait.Seconds()},
		jobs:      1,
		counters:  d.obs.Counters(),
	}
	return st, errors.Join(res.err, d.close())
}

func (r *scanRunner) close() error { return nil }

// daemon is a resident in-process scan service at patcheckod's defaults,
// with its journal and score store on disk.
type daemon struct {
	srv *server.Server
	obs *obs.Metrics
}

func startDaemon(w *world, dir string) (*daemon, error) {
	store, err := cas.Open(filepath.Join(dir, "store"), w.modelHash, 0)
	if err != nil {
		return nil, fmt.Errorf("score store: %w", err)
	}
	sink := obs.New()
	srv, err := server.New(server.Config{
		Model:       w.model,
		DB:          w.db,
		QueueDepth:  64,
		Workers:     2,
		ScanWorkers: runtime.NumCPU(),
		RetryBudget: 2,
		RetryBase:   100 * time.Millisecond,
		RetryMax:    5 * time.Second,
		JournalPath: filepath.Join(dir, "journal.jsonl"),
		Store:       store,
		Obs:         sink,
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	return &daemon{srv: srv, obs: sink}, nil
}

func (d *daemon) close() error { return d.srv.Close() }

// job submits one job, waits for its terminal state and fetches its
// report, checking that it finished done, undegraded and without scan
// errors (a static-only submission is expected to come back degraded).
func (d *daemon) job(ctx context.Context, sub *server.Submission, tenant string) (opResult, *patchecko.Report) {
	s := *sub
	s.Tenant = tenant
	start := time.Now()
	id, _, apiErr := d.srv.Submit(&s)
	res := opResult{submit: time.Since(start)}
	if apiErr != nil {
		res.latency = res.submit
		res.err = fmt.Errorf("submit rejected: %s: %s", apiErr.Kind, apiErr.Msg)
		return res, nil
	}
	st, err := d.srv.Wait(ctx, id)
	res.latency = time.Since(start)
	rep := d.srv.Report(id)
	switch {
	case err != nil:
		res.err = fmt.Errorf("wait: %w", err)
	case st.State != server.StateDone:
		res.err = fmt.Errorf("job %s ended %s: %+v", id, st.State, st.Error)
	case rep == nil:
		res.err = fmt.Errorf("job %s is done without a report", id)
	case st.Degraded != s.StaticOnly:
		res.err = fmt.Errorf("job %s Degraded = %v", id, st.Degraded)
	case len(rep.Errors) > 0:
		res.err = fmt.Errorf("job %s report carries %d scan errors, first: %v", id, len(rep.Errors), rep.Errors[0])
	}
	if rep != nil {
		res.stats = rep.Stats
		res.queueWait = res.latency - rep.Stats.PrepareWall - rep.Stats.ScanWall
	}
	return res, rep
}

// daemonRunner is daemon-rescan: nproc clients, each following the update
// stream of its own device and submitting its next release per round.
type daemonRunner struct {
	w       *world
	d       *daemon
	streams [][]*streamRelease // one per client
	next    int                // rounds run so far
}

func newDaemonRescan(w *world, seed int64, dir string) (runner, error) {
	r := &daemonRunner{w: w}
	for _, s := range deriveInputs(seed, w.db.IDs(), runtime.NumCPU()) {
		stream, err := updateStream(s)
		if err != nil {
			return nil, err
		}
		r.streams = append(r.streams, stream)
	}
	d, err := startDaemon(w, dir)
	if err != nil {
		return nil, err
	}
	r.d = d
	return r, nil
}

func (r *daemonRunner) warmup(ctx context.Context) error {
	for _, op := range r.round(ctx, false).ops {
		if op.err != nil {
			return fmt.Errorf("warm-up round: %w", op.err)
		}
	}
	return nil
}

// round runs one job per client concurrently. Each client takes its
// stream's releases in order, wrapping around after the last one.
func (r *daemonRunner) round(ctx context.Context, _ bool) roundResult {
	c0 := r.d.obs.Counters()
	var s0 [obs.NumStages]int64
	for st := range s0 {
		s0[st] = r.d.obs.StageNs(obs.Stage(st))
	}
	ops := make([]opResult, len(r.streams))
	var wg sync.WaitGroup
	for c, stream := range r.streams {
		rel := stream[r.next%len(stream)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, rep := r.d.job(ctx, &rel.sub, fmt.Sprintf("client-%d", c))
			if rep != nil {
				res.accuracy = verdictAccuracy(rel.fw, rep)
				res.match = matchAccuracy(rel.fw, rep)
			}
			ops[c] = res
		}()
	}
	wg.Wait()
	r.next++
	rr := roundResult{ops: ops, counters: r.d.obs.Counters()}
	for k, v := range c0 {
		rr.counters[k] -= v
	}
	for st := range rr.stageNs {
		rr.stageNs[st] = r.d.obs.StageNs(obs.Stage(st)) - s0[st]
	}
	return rr
}

func (r *daemonRunner) cycle() int { return 1 }

func (r *daemonRunner) probeImages() []*patchecko.Image { return r.streams[0][0].fw.Images }

func (r *daemonRunner) serverLayer(_ context.Context, tops []opResult, counters map[string]int64, _ string) (serverStats, error) {
	st := serverStats{jobs: len(tops), counters: counters}
	for _, op := range tops {
		st.submit = append(st.submit, op.submit.Seconds())
		st.queueWait = append(st.queueWait, op.queueWait.Seconds())
	}
	return st, nil
}

func (r *daemonRunner) close() error { return r.d.close() }
