package detector

import (
	"encoding/json"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/features"
	"repro/internal/obs"
)

// benchTargets approximates one ScaleSmall library image's function count.
const benchTargets = 400

func benchFixture() (*Model, features.Vector, []features.Vector) {
	m, rng := syntheticModel(1, 100)
	targets := make([]features.Vector, benchTargets)
	for i := range targets {
		targets[i] = syntheticVector(rng)
	}
	return m, syntheticVector(rng), targets
}

// benchOverlapUnique sizes the content-dedup fixture: benchTargets (400)
// target slots share benchOverlapUnique (80) distinct bodies, five copies
// each — the fleet-scan shape where one vendor library ships on several
// device images.
const benchOverlapUnique = 80

func benchOverlapFixture() (m *Model, query features.Vector, targets, unique []features.Vector, idx []int) {
	m, rng := syntheticModel(1, 100)
	unique = make([]features.Vector, benchOverlapUnique)
	for i := range unique {
		unique[i] = syntheticVector(rng)
	}
	targets = make([]features.Vector, benchTargets)
	idx = make([]int, benchTargets)
	for i := range targets {
		idx[i] = i % benchOverlapUnique
		targets[i] = unique[idx[i]]
	}
	return m, syntheticVector(rng), targets, unique, idx
}

var benchCandidates []Candidate

// scalarOp is the static stage's scalar baseline: per pair, both vectors
// are normalized and pushed through the first layer from scratch, and
// every layer output is freshly allocated.
func scalarOp() func() {
	m, query, targets := benchFixture()
	return func() { benchCandidates = m.Candidates(query, targets) }
}

// scorerOps builds the steady-state batched path and the same path with a
// live metrics sink attached. Both run on one Scorer over one prepared
// query and target set, attaching or detaching the sink per call, so that
// they differ only in the sink and not in where their buffers landed.
//
// batched: target and query halves precomputed (as the scan engine's
// caches hold them), all forward passes in per-worker scratch buffers.
//
// observed: the instrumentation budget is two bulk atomic adds per
// Candidates call, so ns/pair must stay within noise of the unobserved
// batched path and the steady state must stay allocation-free. (A nil sink
// is the same code path with the adds compiled down to nil-receiver
// returns; batched already covers it.)
func scorerOps() (batched, observed func()) {
	m, query, targets := benchFixture()
	ts := m.PrepareTargets(targets)
	qh := m.PrepareQuery(query)
	sc, sink := m.NewScorer(), obs.New()
	sc.Candidates(qh, ts) // warm the candidate buffer
	return func() { benchCandidates = sc.Observe(nil).Candidates(qh, ts) },
		func() { benchCandidates = sc.Observe(sink).Candidates(qh, ts) }
}

// overlapOp is the dedup baseline: the batched path scoring all 400 target
// slots, blind to the fact that only 80 bodies are distinct. This is what
// every scan paid before content addressing.
func overlapOp() func() {
	m, query, targets, _, _ := benchOverlapFixture()
	ts := m.PrepareTargets(targets)
	qh := m.PrepareQuery(query)
	sc := m.NewScorer()
	sc.Candidates(qh, ts) // warm the candidate buffer
	return func() { benchCandidates = sc.Candidates(qh, ts) }
}

// dedupedOp is the content-addressed path: score each of the 80 unique
// bodies once, then fan the scores out to all 400 slots through the
// address→slot index — the same shape patchecko's dedup layer uses. Its
// cost is still counted over the 400 effective pairs, so the speedup
// against overlapOp is the measured dedup win at 5x duplication.
func dedupedOp() func() {
	m, query, _, unique, idx := benchOverlapFixture()
	ts := m.PrepareTargets(unique)
	qh := m.PrepareQuery(query)
	sc := m.NewScorer()
	scores := make([]float64, benchOverlapUnique)
	fanned := make([]float64, benchTargets)
	return func() {
		for u := 0; u < benchOverlapUnique; u++ {
			scores[u] = sc.Pair(qh, ts, u)
		}
		for slot, u := range idx {
			fanned[slot] = scores[u]
		}
	}
}

// benchOp times op per call and reports ns and pairs per effective pair;
// every op scores benchTargets effective pairs.
func benchOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	reportPairMetrics(b, benchTargets)
}

func BenchmarkCandidatesScalar(b *testing.B) { benchOp(b, scalarOp()) }
func BenchmarkCandidatesBatched(b *testing.B) {
	batched, _ := scorerOps()
	benchOp(b, batched)
}

func BenchmarkCandidatesObserved(b *testing.B) {
	_, observed := scorerOps()
	benchOp(b, observed)
}

func BenchmarkCandidatesOverlapBatched(b *testing.B) { benchOp(b, overlapOp()) }
func BenchmarkCandidatesDeduped(b *testing.B)        { benchOp(b, dedupedOp()) }

// BenchmarkPrepareTargets prices the per-image precomputation the batched
// path amortizes across the scan grid.
func BenchmarkPrepareTargets(b *testing.B) {
	m, _, targets := benchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.PrepareTargets(targets)
	}
	reportPairMetrics(b, len(targets))
}

func reportPairMetrics(b *testing.B, pairs int) {
	total := float64(pairs) * float64(b.N)
	b.ReportMetric(b.Elapsed().Seconds()*1e9/total, "ns/pair")
	b.ReportMetric(total/b.Elapsed().Seconds(), "pairs/s")
}

// benchArtifact is the BENCH_static.json schema: the static stage's perf
// trajectory for future PRs to compare against.
type benchArtifact struct {
	Benchmark string `json:"benchmark"`
	Targets   int    `json:"targets"`
	// Rounds is how many times each compared pair of paths was timed, the
	// two alternating (see compareRounds). Each row's ns/pair is the path's
	// fastest round; each ratio below is the median of per-round ratios.
	Rounds   int              `json:"rounds"`
	Scalar   benchArtifactRow `json:"scalar"`
	Batched  benchArtifactRow `json:"batched"`
	Observed benchArtifactRow `json:"observed"`
	Speedup  float64          `json:"speedup"`
	// ObservedOverheadPct is the batched path's ns/pair cost of a live
	// metrics sink, in percent (negative values are measurement noise).
	ObservedOverheadPct float64 `json:"observed_overhead_pct"`
	// Content-dedup rows: 400 target slots sharing 80 unique bodies
	// (DedupRatio 5x). Deduped scores each body once and fans the result
	// out; DedupSpeedup is its measured win over the duplication-blind
	// batched path on the same fleet.
	UniqueTargets  int              `json:"unique_targets"`
	OverlapBatched benchArtifactRow `json:"overlap_batched"`
	Deduped        benchArtifactRow `json:"deduped"`
	DedupRatio     float64          `json:"dedup_ratio"`
	DedupSpeedup   float64          `json:"dedup_speedup"`
}

type benchArtifactRow struct {
	NsPerPair   float64 `json:"ns_per_pair"`
	PairsPerSec float64 `json:"pairs_per_sec"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// How compareRounds samples: benchRounds timings per path, each repeating
// the path's op for at least benchSampleTime.
const (
	benchRounds     = 101
	benchSampleTime = time.Millisecond
)

// compareRounds times ops a and b alternately, benchRounds times each — a
// then b on even rounds, b then a on odd ones — and returns each op's
// fastest per-call time and the median over rounds of a's time over b's.
// The two timings of one round run back to back, so load from another
// process on a shared machine slows both sides of a round alike, and a
// burst that slows one side of a few rounds cannot move the median.
func compareRounds(a, b func()) (fastA, fastB time.Duration, ratio float64) {
	ops := [2]func(){a, b}
	var reps [2]int
	for i, op := range ops {
		start := time.Now()
		op()
		reps[i] = max(1, int(benchSampleTime/max(time.Since(start), 1)))
	}
	runtime.GC()
	var times [2][]time.Duration
	ratios := make([]float64, benchRounds)
	for r := range ratios {
		for k := 0; k < 2; k++ {
			i := k ^ r%2
			start := time.Now()
			for n := 0; n < reps[i]; n++ {
				ops[i]()
			}
			times[i] = append(times[i], time.Since(start)/time.Duration(reps[i]))
		}
		ratios[r] = float64(times[0][r]) / float64(times[1][r])
	}
	slices.Sort(ratios)
	return slices.Min(times[0]), slices.Min(times[1]), ratios[len(ratios)/2]
}

// TestWriteStaticBenchArtifact measures the scalar, batched and dedup
// candidate paths and writes BENCH_static.json to the path in
// PATCHECKO_BENCH_OUT. Each gate compares two paths timed alternately over
// many rounds (compareRounds). Skipped when the variable is unset, so `go
// test` stays fast; CI and `make bench-static` opt in.
func TestWriteStaticBenchArtifact(t *testing.T) {
	out := os.Getenv("PATCHECKO_BENCH_OUT")
	if out == "" {
		t.Skip("PATCHECKO_BENCH_OUT not set")
	}
	scalar, overlap, deduped := scalarOp(), overlapOp(), dedupedOp()
	batched, observed := scorerOps()
	fastScalar, fastBatched, speedup := compareRounds(scalar, batched)
	fastObserved, fastBatched2, overhead := compareRounds(observed, batched)
	fastOverlap, fastDeduped, dedupSpeedup := compareRounds(overlap, deduped)
	row := func(fast time.Duration, op func()) benchArtifactRow {
		ns := float64(fast.Nanoseconds()) / benchTargets
		return benchArtifactRow{
			NsPerPair:   ns,
			PairsPerSec: 1e9 / ns,
			AllocsPerOp: int64(testing.AllocsPerRun(3, op)),
		}
	}
	art := benchArtifact{
		Benchmark:           "internal/detector Candidates: paper network, symmetrized pairs, small-scale image",
		Targets:             benchTargets,
		Rounds:              benchRounds,
		Scalar:              row(fastScalar, scalar),
		Batched:             row(min(fastBatched, fastBatched2), batched),
		Observed:            row(fastObserved, observed),
		Speedup:             speedup,
		ObservedOverheadPct: 100 * (overhead - 1),
		UniqueTargets:       benchOverlapUnique,
		OverlapBatched:      row(fastOverlap, overlap),
		Deduped:             row(fastDeduped, deduped),
		DedupRatio:          float64(benchTargets) / benchOverlapUnique,
		DedupSpeedup:        dedupSpeedup,
	}
	raw, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("scalar %.0f ns/pair, batched %.0f ns/pair, observed %.0f ns/pair, "+
		"speedup %.2fx, metrics overhead %+.2f%%, batched allocs/op %d",
		art.Scalar.NsPerPair, art.Batched.NsPerPair, art.Observed.NsPerPair,
		art.Speedup, art.ObservedOverheadPct, art.Batched.AllocsPerOp)
	t.Logf("dedup fixture (%d slots, %d unique, %.0fx duplication): "+
		"blind %.0f ns/pair, deduped %.0f ns/pair, dedup speedup %.2fx",
		benchTargets, art.UniqueTargets, art.DedupRatio,
		art.OverlapBatched.NsPerPair, art.Deduped.NsPerPair, art.DedupSpeedup)
	if art.Speedup < 3 {
		t.Errorf("batched speedup %.2fx below the 3x acceptance floor", art.Speedup)
	}
	if art.Batched.AllocsPerOp != 0 {
		t.Errorf("batched path allocates %d objects/op in steady state, want 0", art.Batched.AllocsPerOp)
	}
	if art.Observed.AllocsPerOp != 0 {
		t.Errorf("observed path allocates %d objects/op in steady state, want 0", art.Observed.AllocsPerOp)
	}
	if art.ObservedOverheadPct >= 2 {
		t.Errorf("live metrics sink costs %+.2f%% ns/pair on the batched path, want < 2%%",
			art.ObservedOverheadPct)
	}
	if art.Deduped.AllocsPerOp != 0 {
		t.Errorf("deduped path allocates %d objects/op in steady state, want 0", art.Deduped.AllocsPerOp)
	}
	if art.DedupSpeedup < 3 {
		t.Errorf("dedup speedup %.2fx at %.0fx duplication, below the 3x acceptance floor",
			art.DedupSpeedup, art.DedupRatio)
	}
}
