package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/detector"
	"repro/internal/disasm"
	"repro/internal/dynamic"
	"repro/internal/emu"
	"repro/internal/features"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/vulndb"
	"repro/patchecko"
)

// Probe sizes: the per-layer probes time calls on a deterministic sample of
// the workload's inputs so a traced run stays short on the large fleet.
const (
	probeDetectorImages = 16 // images the static-stage probe scores
	probeCandidates     = 48 // candidates the dynamic and emulator probes run
)

// layerMetrics computes the per-layer metrics of a traced run. Counts and
// ratios come from the obs counters and Report.Stats of the traced ops, and
// so does the verdict cost: the differential stage's total over the
// verdicts reached. The other per-call costs come from probes that record a
// span around each call into a layer's public functions on the workload's
// own inputs.
func layerMetrics(ctx context.Context, w *world, r runner, m measurement, dir string) (map[string]float64, error) {
	v, err := probeLayers(ctx, w, r.probeImages())
	if err != nil {
		return nil, err
	}
	c := func(name string) float64 { return float64(m.counters[name]) }
	n := float64(len(m.traced))

	var st struct{ run, pruned, hits, misses, storeHits, storeMisses, workerNs, match float64 }
	for _, op := range m.traced {
		st.match += op.match
		s := op.stats
		st.run += float64(s.ScansRun)
		st.pruned += float64(s.CellsPruned)
		st.hits += float64(s.CacheHits)
		st.misses += float64(s.CacheMisses)
		st.storeHits += float64(s.StoreHits)
		st.storeMisses += float64(s.StoreMisses)
		st.workerNs += float64(s.ScanWall.Nanoseconds()) * float64(s.Workers)
	}
	pairs := c("pairs_scored") + c("pairs_deduped") + c("pairs_from_store")
	validations := c("candidates_validated") + c("candidates_excluded")
	gridNs := float64(m.stageNs[obs.StageStatic] + m.stageNs[obs.StageDynamic] + m.stageNs[obs.StageDifferential])

	v["compid.pruned_ratio"] = ratio(st.pruned, st.run+st.pruned)
	v["detector.pairs_scored"] = c("pairs_scored") / n
	v["detector.candidate_ratio"] = ratio(c("static_candidates"), pairs)
	v["dedup.pair_reuse_ratio"] = ratio(c("pairs_deduped"), pairs)
	v["dedup.validation_reuse_ratio"] = ratio(c("validations_deduped"), validations)
	v["dynamic.candidates"] = validations / n
	v["dynamic.survivor_ratio"] = ratio(c("candidates_validated"), validations)
	v["dynamic.match_accuracy"] = st.match / n
	v["emu.executions"] = c("executions") / n
	v["emu.steps"] = c("exec_steps") / n
	v["emu.trap_ratio"] = ratio(c("executions_trapped"), c("executions"))
	v["diffengine.verdicts"] = c("verdicts") / n
	v["diffengine.ns_per_verdict"] = ratio(float64(m.stageNs[obs.StageDifferential]), c("verdicts"))
	v["engine.cells_run"] = st.run / n
	v["engine.ref_hit_ratio"] = ratio(st.hits, st.hits+st.misses)
	v["engine.busy_ratio"] = ratio(gridNs, st.workerNs)
	v["cas.store_hit_ratio"] = ratio(st.storeHits, st.storeHits+st.storeMisses)

	srv, err := r.serverLayer(ctx, m.traced, m.counters, dir)
	if err != nil {
		return nil, fmt.Errorf("server layer: %w", err)
	}
	jobs := float64(srv.jobs)
	v["server.submit_s_p50"] = median(srv.submit)
	v["server.queue_wait_s_p50"] = median(srv.queueWait)
	v["server.journal_appends"] = float64(srv.counters["journal_appends"]) / jobs
	v["server.jobs_retried"] = float64(srv.counters["jobs_retried"]) / jobs
	v["server.jobs_rejected"] = float64(srv.counters["jobs_rejected"]) / jobs

	var all usage
	all.add(m.plainUse)
	all.add(m.tracedUse)
	v["runtime.gc_cpu_fraction"] = ratio(all.gcCPU, all.totalCPU)
	v["runtime.gc_cycles_per_op"] = float64(all.numGC) / float64(len(m.plain)+len(m.traced))

	traced := median(latencies(m.traced))
	v["tracing.latency_s_p50"] = traced
	v["tracing.overhead_ratio"] = traced/median(latencies(m.plain)) - 1
	return v, nil
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// probeCand is one static candidate the probes run through the dynamic and
// emulator layers.
type probeCand struct {
	p     *patchecko.PreparedImage
	fn    *disasm.Function
	entry *vulndb.Entry
}

// probeLayers times each layer's public entry points on images: Prepare,
// the prefilter's Fingerprint and PrefilterKeep and the batched static
// stage, then dynamic profiling and emulator executions on a sample of the
// static stage's candidates.
func probeLayers(ctx context.Context, w *world, images []*patchecko.Image) (map[string]float64, error) {
	v := make(map[string]float64)
	sample, err := probeStatic(w, images, v)
	if err != nil {
		return nil, err
	}
	probeDynamic(ctx, sample, patchecko.NewAnalyzer(w.model, w.db).StepLimit, v)
	return v, nil
}

// probeStatic times the layers up to the static stage, recording their
// metrics in v, and returns a sample of the static candidates.
func probeStatic(w *world, images []*patchecko.Image, v map[string]float64) ([]probeCand, error) {
	// Prepare: disassembly, feature extraction and content addresses.
	var prepNs time.Duration
	var prepBytes uint64
	funcs := 0
	prepared := make([]*patchecko.PreparedImage, len(images))
	for i, im := range images {
		a0 := totalAlloc()
		start := time.Now()
		p, err := patchecko.Prepare(im)
		prepNs += time.Since(start)
		prepBytes += totalAlloc() - a0
		if err != nil {
			return nil, err
		}
		prepared[i] = p
		funcs += p.NumFuncs()
	}
	v["prepare.ns_per_func"] = float64(prepNs.Nanoseconds()) / float64(funcs)
	v["prepare.alloc_bytes_per_func"] = float64(prepBytes) / float64(funcs)

	// Component prefilter: one fingerprint per image, then the keep decision
	// per (image, CVE) cell on a fresh analyzer, signature derivation
	// included as one scan pays it.
	start := time.Now()
	for _, p := range prepared {
		p.Fingerprint()
	}
	v["compid.fingerprint_ns_per_image"] = float64(time.Since(start).Nanoseconds()) / float64(len(prepared))
	an := patchecko.NewAnalyzer(w.model, w.db)
	ids := w.db.IDs()
	keep := make([][]bool, len(prepared))
	start = time.Now()
	for pi, p := range prepared {
		keep[pi] = make([]bool, len(ids))
		for ci, id := range ids {
			keep[pi][ci] = an.PrefilterKeep(p, id)
		}
	}
	v["compid.keep_ns_per_cell"] = float64(time.Since(start).Nanoseconds()) / float64(len(prepared)*len(ids))

	// Static stage: query halves per (CVE, mode), target halves per image,
	// batched scoring of every kept cell of a sample of images.
	arch := images[0].Arch
	entries := make([]*vulndb.Entry, len(ids))
	var queries []features.Vector // [ci*2 + mode]
	for ci, id := range ids {
		e, _ := w.db.Get(id)
		entries[ci] = e
		for _, ref := range []func(string) (*vulndb.Ref, error){e.VulnRef, e.PatchedRef} {
			r, err := ref(arch)
			if err != nil {
				return nil, err
			}
			queries = append(queries, r.StaticVec())
		}
	}
	var cands []probeCand
	seen := make(map[[3]int]bool)
	pairs := 0
	sc := w.model.NewScorer()
	start = time.Now()
	qhs := make([]*detector.QueryHalves, len(queries))
	for i, q := range queries {
		qhs[i] = w.model.PrepareQuery(q)
	}
	for _, pi := range stride(len(prepared), probeDetectorImages) {
		p := prepared[pi]
		ts := w.model.PrepareTargets(p.Vecs)
		for ci := range ids {
			if !keep[pi][ci] {
				continue
			}
			for mode := 0; mode < 2; mode++ {
				pairs += ts.Len()
				for _, c := range sc.Candidates(qhs[ci*2+mode], ts) {
					if k := [3]int{pi, ci, c.Index}; !seen[k] {
						seen[k] = true
						cands = append(cands, probeCand{p: p, fn: p.Dis.Funcs[c.Index], entry: entries[ci]})
					}
				}
			}
		}
	}
	v["detector.ns_per_pair"] = ratio(float64(time.Since(start).Nanoseconds()), float64(pairs))
	if len(cands) == 0 {
		return nil, fmt.Errorf("static-stage probe found no candidates")
	}
	sample := make([]probeCand, 0, probeCandidates)
	for _, i := range stride(len(cands), probeCandidates) {
		sample = append(sample, cands[i])
	}
	return sample, nil
}

// probeDynamic times the dynamic stage and the emulator on the sampled
// candidates, recording their metrics in v.
func probeDynamic(ctx context.Context, sample []probeCand, steps int64, v map[string]float64) {
	// Dynamic stage: one ProfileCandidate per sampled candidate under its
	// CVE's environments.
	ex := dynamic.Exec{Steps: steps}
	envs := make(map[*vulndb.Entry][]*minic.Env)
	for _, c := range sample {
		if envs[c.entry] == nil {
			envs[c.entry] = c.entry.Environments()
		}
	}
	start := time.Now()
	for _, c := range sample {
		dynamic.ProfileCandidate(ctx, c.p.Dis, c.fn, envs[c.entry], ex)
	}
	v["dynamic.ns_per_candidate"] = float64(time.Since(start).Nanoseconds()) / float64(len(sample))

	// Emulator: every (sampled candidate, environment) execution, on
	// environment copies made outside the span.
	type execIn struct {
		c   probeCand
		env *minic.Env
	}
	var execs []execIn
	for _, c := range sample {
		for _, env := range envs[c.entry] {
			execs = append(execs, execIn{c, env.Clone()})
		}
	}
	sink := obs.New()
	runtime.GC()
	a0 := totalAlloc()
	start = time.Now()
	for _, e := range execs {
		emu.ExecuteObserved(ctx, e.c.p.Dis, e.c.fn, e.env, steps, sink) // traps are outcomes, not failures
	}
	execNs := time.Since(start)
	execBytes := totalAlloc() - a0
	v["emu.ns_per_exec"] = float64(execNs.Nanoseconds()) / float64(len(execs))
	v["emu.alloc_bytes_per_exec"] = float64(execBytes) / float64(len(execs))
	v["emu.steps_per_s"] = float64(sink.Get(obs.CtrExecSteps)) / execNs.Seconds()
}

// stride returns at most k indices spread evenly over [0, n).
func stride(n, k int) []int {
	if n <= k {
		k = n
	}
	out := make([]int, k)
	for i := range out {
		out[i] = i * n / k
	}
	return out
}
