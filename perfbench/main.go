// Command perfbench is the whole-scan benchmark: it drives the scanner
// through its public APIs on one of three seeded workloads, checks every
// op's output, and prints end-to-end metrics (or, with -trace 1, per-layer
// metrics). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {"latency_s_p50": {"value": 2.9, "unit": "s"}, ...}}
//
// Run it through run.sh, which builds it from the checkout's sources:
//
//	bash perfbench/run.sh --workload device-scan --seed 42 --seconds 18 --trace 0
//
// NOTES.md explains the workloads, the metrics and the steadiness protocol.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many times a run sets up; setup_s is their median, which
// one slow repetition on a shared machine does not move.
const setupReps = 5

// End-to-end metrics, printed by untraced runs.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_s_p50", "s"},
	{"cpu_s_per_op", "s"},
	{"alloc_mb_per_op", "MB"},
	{"retained_mb", "MB"},
	{"verdict_accuracy", "fraction"},
}

// Per-layer metrics, printed by traced runs. Counts are per op.
var perLayer = []struct{ name, unit string }{
	{"prepare.ns_per_func", "ns"},
	{"prepare.alloc_bytes_per_func", "B"},
	{"compid.fingerprint_ns_per_image", "ns"},
	{"compid.keep_ns_per_cell", "ns"},
	{"compid.pruned_ratio", "fraction"},
	{"detector.pairs_scored", "count"},
	{"detector.ns_per_pair", "ns"},
	{"detector.candidate_ratio", "fraction"},
	{"dedup.pair_reuse_ratio", "fraction"},
	{"dedup.validation_reuse_ratio", "fraction"},
	{"dynamic.candidates", "count"},
	{"dynamic.survivor_ratio", "fraction"},
	{"dynamic.ns_per_candidate", "ns"},
	{"dynamic.match_accuracy", "fraction"},
	{"emu.executions", "count"},
	{"emu.steps", "count"},
	{"emu.steps_per_s", "1/s"},
	{"emu.ns_per_exec", "ns"},
	{"emu.alloc_bytes_per_exec", "B"},
	{"emu.trap_ratio", "fraction"},
	{"diffengine.verdicts", "count"},
	{"diffengine.ns_per_verdict", "ns"},
	{"engine.cells_run", "count"},
	{"engine.ref_hit_ratio", "fraction"},
	{"engine.busy_ratio", "fraction"},
	{"server.submit_s_p50", "s"},
	{"server.queue_wait_s_p50", "s"},
	{"server.journal_appends", "count"},
	{"server.jobs_retried", "count"},
	{"server.jobs_rejected", "count"},
	{"cas.store_hit_ratio", "fraction"},
	{"runtime.gc_cpu_fraction", "fraction"},
	{"runtime.gc_cycles_per_op", "count"},
	{"tracing.latency_s_p50", "s"},
	{"tracing.overhead_ratio", "fraction"},
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "device-scan, fleet-triage or daemon-rescan")
		seed    = fs.Int64("seed", 42, "workload seed: every generated input derives from it")
		seconds = fs.Float64("seconds", 10, "how long to measure (at least one round runs)")
		trace   = fs.Int("trace", 0, "1 prints per-layer metrics instead of end-to-end ones")
		workdir = fs.String("workdir", ".bench_build", "directory for the run's scratch files")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()

	// Set-up: train, build the DB, generate the inputs and start whatever the
	// workload keeps resident, several times; the last repetition serves the
	// run.
	var (
		setups []float64
		w      *world
		r      runner
	)
	for rep := 0; rep < setupReps; rep++ {
		if r != nil {
			if err := r.close(); err != nil {
				return err
			}
		}
		runtime.GC()
		start := time.Now()
		if w, err = buildWorld(); err != nil {
			return err
		}
		r, err = wl.build(w, *seed, filepath.Join(dir, fmt.Sprintf("setup-%d", rep)))
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer r.close() // error paths only; closing again below is a no-op

	// The heap the run's own fixtures hold (model, DB, generated inputs and
	// an idle server), which retained_mb leaves out.
	runtime.GC()
	baseMB := heapMB()
	if err := r.warmup(ctx); err != nil {
		return err
	}
	m := measure(ctx, r, time.Duration(*seconds*float64(time.Second)), *trace == 1)

	res := result{Metrics: make(map[string]metric)}
	for _, op := range append(m.plain, m.traced...) {
		res.Attempted++
		if op.err != nil {
			res.Failed++
			fmt.Fprintf(stdout, "op failed: %v\n", op.err)
		}
	}
	res.Correct = res.Failed == 0
	lat := latencies(m.plain)
	var values map[string]float64
	if *trace == 0 {
		acc := 0.0
		for _, op := range m.plain {
			acc += op.accuracy
		}
		n := float64(len(m.plain))
		values = map[string]float64{
			"setup_s":          median(setups),
			"latency_s_p50":    median(lat),
			"cpu_s_per_op":     m.plainUse.cpu.Seconds() / n,
			"alloc_mb_per_op":  float64(m.plainUse.alloc) / 1e6 / n,
			"retained_mb":      m.retainedMB - baseMB,
			"verdict_accuracy": acc / n,
		}
	} else {
		if values, err = layerMetrics(ctx, w, r, m, dir); err != nil {
			return err
		}
	}
	if err := r.close(); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "perfbench %s seed=%d trace=%d: %d ops attempted, %d failed\n",
		wl.name, *seed, *trace, res.Attempted, res.Failed)
	fmt.Fprintf(stdout, "latency: %d samples, p50 %.4f s, per-op IQR %.1f%% of p50", len(lat), median(lat),
		100*(quantile(lat, 0.75)-quantile(lat, 0.25))/median(lat))
	if p := tailPercentile(len(lat)); p > 0 {
		fmt.Fprintf(stdout, ", p%g %.4f s (highest percentile with >= 10 samples beyond it)\n", p, quantile(lat, p/100))
	} else {
		fmt.Fprintf(stdout, " (no percentile has >= 10 samples beyond it)\n")
	}
	fmt.Fprintf(stdout, "retained heap: %.2f MB, of which %.2f MB are the run's fixtures\n", m.retainedMB, baseMB)
	if *trace == 1 {
		tl := median(latencies(m.traced))
		fmt.Fprintf(stdout, "tracing overhead: traced p50 %.4f s vs untraced p50 %.4f s (%+.1f%%)\n",
			tl, median(lat), 100*(tl/median(lat)-1))
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not computed", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "  %-34s %14.6g %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// measurement is what the timed rounds recorded. Untraced ("plain") and
// traced rounds are kept apart; a traced run alternates the two.
type measurement struct {
	plain, traced       []opResult
	plainUse, tracedUse usage
	retainedMB          float64
	// counters and stageNs sum what the traced rounds' obs sinks counted.
	counters map[string]int64
	stageNs  [obs.NumStages]int64
}

// retainRound is the timed round before which the retained heap is read.
// The server keeps every finished job, so its heap grows with the jobs run;
// reading it after a fixed number of rounds keeps retained_mb independent
// of how many rounds fit in the measured time.
const retainRound = 3

// measure runs rounds until dur has passed and the last input cycle is
// complete, so every input weighs the same in the medians and means (at
// least one cycle runs). A traced run alternates untraced and traced rounds
// and ends on a whole number of double cycles, so every input appears
// equally often in both kinds. Before each round it forces a GC outside the
// timed region, so one round's garbage is not collected on the next one's
// clock.
func measure(ctx context.Context, r runner, dur time.Duration, trace bool) measurement {
	m := measurement{counters: make(map[string]int64)}
	cycle := r.cycle()
	if trace {
		cycle *= 2
	}
	start := time.Now()
	i := 0
	for ; i == 0 || time.Since(start) < dur || i%cycle != 0; i++ {
		traced := trace && i%2 == 1
		runtime.GC()
		if i == retainRound {
			m.retainedMB = heapMB()
		}
		u0 := readUsage()
		rr := r.round(ctx, traced)
		d := readUsage().sub(u0)
		if !traced {
			m.plain = append(m.plain, rr.ops...)
			m.plainUse.add(d)
			continue
		}
		m.traced = append(m.traced, rr.ops...)
		m.tracedUse.add(d)
		for k, v := range rr.counters {
			m.counters[k] += v
		}
		for st, ns := range rr.stageNs {
			m.stageNs[st] += ns
		}
	}
	if i <= retainRound {
		runtime.GC()
		m.retainedMB = heapMB()
	}
	return m
}

// heapMB is the live heap in MB; call it right after a forced GC.
func heapMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func latencies(ops []opResult) []float64 {
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = op.latency.Seconds()
	}
	return out
}
