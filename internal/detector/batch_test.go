package detector

import (
	"math/rand"
	"testing"

	"repro/internal/features"
	"repro/internal/nn"
)

// syntheticModel builds a model with paper-shaped random weights and a
// normalizer fit on plausible count-like feature vectors — enough for
// scoring-path equivalence without paying for training.
func syntheticModel(seed int64, nFit int) (*Model, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	fit := make([]features.Vector, nFit)
	for i := range fit {
		fit[i] = syntheticVector(rng)
	}
	return &Model{
		Net:       nn.NewPaperNetwork(seed + 1),
		Norm:      FitNormalizer(fit),
		Threshold: 0.25,
	}, rng
}

func syntheticVector(rng *rand.Rand) features.Vector {
	var v features.Vector
	for j := range v {
		v[j] = float64(rng.Intn(64))
		if rng.Intn(8) == 0 {
			v[j] = 0
		}
	}
	return v
}

// TestScorerPairMatchesSimilarityBitForBit is the core equivalence claim:
// the batched scorer's symmetrized pair score equals the scalar
// Model.Similarity exactly — same floating-point operation order, so ==,
// not approximately-equal, across many random models and vectors.
func TestScorerPairMatchesSimilarityBitForBit(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		m, rng := syntheticModel(seed, 50)
		const nTargets = 40
		targets := make([]features.Vector, nTargets)
		for i := range targets {
			targets[i] = syntheticVector(rng)
		}
		ts := m.PrepareTargets(targets)
		sc := m.NewScorer()
		for trial := 0; trial < 10; trial++ {
			query := syntheticVector(rng)
			qh := m.PrepareQuery(query)
			for i, tv := range targets {
				want := m.Similarity(query, tv)
				got := sc.Pair(qh, ts, i)
				if got != want {
					t.Fatalf("seed %d trial %d target %d: batched %v != scalar %v (diff %g)",
						seed, trial, i, got, want, got-want)
				}
			}
		}
	}
}

// TestScorerCandidatesMatchScalar: same inputs, same candidate list —
// indices, exact scores, and order.
func TestScorerCandidatesMatchScalar(t *testing.T) {
	m, rng := syntheticModel(7, 80)
	const nTargets = 120
	targets := make([]features.Vector, nTargets)
	for i := range targets {
		targets[i] = syntheticVector(rng)
	}
	ts := m.PrepareTargets(targets)
	sc := m.NewScorer()
	for trial := 0; trial < 8; trial++ {
		query := syntheticVector(rng)
		want := m.Candidates(query, targets)
		got := sc.Candidates(m.PrepareQuery(query), ts)
		if len(got) != len(want) {
			t.Fatalf("trial %d: batched found %d candidates, scalar %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d candidate %d: batched %+v != scalar %+v", trial, i, got[i], want[i])
			}
		}
	}
	if sc.Candidates(m.PrepareQuery(syntheticVector(rng)), &TargetSet{}) == nil {
		// empty target set yields an empty (non-nil is not required), just
		// must not panic
		t.Log("empty target set scored")
	}
}

// TestScorerSteadyStateAllocs: once the scorer's buffers are warm, scoring
// a whole target set — threshold filter, candidate collection and sort
// included — must not allocate.
func TestScorerSteadyStateAllocs(t *testing.T) {
	m, rng := syntheticModel(9, 60)
	targets := make([]features.Vector, 200)
	for i := range targets {
		targets[i] = syntheticVector(rng)
	}
	ts := m.PrepareTargets(targets)
	qh := m.PrepareQuery(syntheticVector(rng))
	sc := m.NewScorer()
	sc.Candidates(qh, ts) // warm the candidate buffer
	allocs := testing.AllocsPerRun(20, func() {
		sc.Candidates(qh, ts)
	})
	if allocs != 0 {
		t.Errorf("steady-state Candidates allocates %.1f objects/op, want 0", allocs)
	}
}

// TestScorersShareOneEngine: the hidden layers' kernel layout is built once
// per model, not once per Scorer (the scan engine makes one per worker).
func TestScorersShareOneEngine(t *testing.T) {
	m, _ := syntheticModel(11, 20)
	a, b := m.NewScorer(), m.NewScorer()
	if a.engine == nil || a.engine != b.engine {
		t.Fatalf("scorers of one model hold engines %p and %p, want one shared", a.engine, b.engine)
	}
}

// TestPrepareQueryMatchesPrepareTargets: the query- and target-side
// precomputations of the same vector are the same numbers, so a reference
// scored as a query equals itself scored as a target.
func TestPrepareQueryMatchesPrepareTargets(t *testing.T) {
	m, rng := syntheticModel(21, 40)
	v := syntheticVector(rng)
	qh := m.PrepareQuery(v)
	ts := m.PrepareTargets([]features.Vector{v})
	for o := range qh.first {
		if qh.first[o] != ts.firstHalf(0)[o] || qh.second[o] != ts.secondHalf(0)[o] {
			t.Fatalf("row %d: query halves (%v, %v) != target halves (%v, %v)",
				o, qh.first[o], qh.second[o], ts.firstHalf(0)[o], ts.secondHalf(0)[o])
		}
	}
}

// TestSimilarityStillSymmetricAndStable: the split-order refactor keeps
// Similarity symmetric and in [0,1].
func TestSimilaritySplitOrderProperties(t *testing.T) {
	m, rng := syntheticModel(33, 40)
	for trial := 0; trial < 20; trial++ {
		a, b := syntheticVector(rng), syntheticVector(rng)
		ab, ba := m.Similarity(a, b), m.Similarity(b, a)
		if ab != ba {
			t.Fatalf("trial %d: Similarity not symmetric: %v vs %v", trial, ab, ba)
		}
		if ab < 0 || ab > 1 {
			t.Fatalf("trial %d: score %v outside [0,1]", trial, ab)
		}
	}
}
