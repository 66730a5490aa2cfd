package nn

import (
	"math"
	"math/rand"
	"testing"
)

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestHalfApplyVariantsAgree pins HalfApplyInto to HalfApply bit for bit,
// for both halves of a pair layer, with and without the bias, on the
// paper's first layer and on one whose row count leaves an unrolling tail.
func TestHalfApplyVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, out := range []int{128, 7} {
		d := NewDense(96, out, rng)
		for i := range d.B {
			d.B[i] = rng.NormFloat64()
		}
		half := randVec(rng, 48)
		for _, tc := range []struct {
			off      int
			withBias bool
		}{{0, true}, {0, false}, {48, true}, {48, false}} {
			want := d.HalfApply(half, tc.off, tc.withBias)
			got := make([]float64, d.Out)
			d.HalfApplyInto(got, half, tc.off, tc.withBias)
			for o := range want {
				if got[o] != want[o] {
					t.Fatalf("96x%d off=%d bias=%v: HalfApplyInto[%d] = %v, HalfApply = %v",
						out, tc.off, tc.withBias, o, got[o], want[o])
				}
			}
		}
	}
}

// TestApplyInto2MatchesApply pins the interleaved two-input kernel to the
// reference Apply bit for bit on both inputs, across shapes covering the
// unrolled rows and the tail (including the final 8→1 layer).
func TestApplyInto2MatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, shape := range [][2]int{{128, 64}, {16, 8}, {8, 1}, {5, 3}, {6, 7}} {
		d := NewDense(shape[0], shape[1], rng)
		for i := range d.B {
			d.B[i] = rng.NormFloat64()
		}
		xA, xB := randVec(rng, shape[0]), randVec(rng, shape[0])
		wantA, wantB := d.Apply(xA), d.Apply(xB)
		gotA, gotB := make([]float64, shape[1]), make([]float64, shape[1])
		d.ApplyInto2(gotA, gotB, xA, xB)
		for o := range wantA {
			if gotA[o] != wantA[o] || gotB[o] != wantB[o] {
				t.Fatalf("%dx%d row %d: ApplyInto2 (%v, %v) != Apply (%v, %v)",
					shape[0], shape[1], o, gotA[o], gotB[o], wantA[o], wantB[o])
			}
		}
	}
}

// TestInferLogitSplitScratch2MatchesSplit: the interleaved dual-direction
// pass reproduces two independent reference passes bit for bit.
func TestInferLogitSplitScratch2MatchesSplit(t *testing.T) {
	n := NewPaperNetwork(6)
	rng := rand.New(rand.NewSource(17))
	s := n.NewScratch()
	l0 := n.Layers[0]
	for trial := 0; trial < 50; trial++ {
		a, b := randVec(rng, 48), randVec(rng, 48)
		aFirst, aSecond := l0.HalfApply(a, 0, true), l0.HalfApply(a, 48, false)
		bFirst, bSecond := l0.HalfApply(b, 0, true), l0.HalfApply(b, 48, false)
		wantAB := n.InferLogitSplit(aFirst, bSecond)
		wantBA := n.InferLogitSplit(bFirst, aSecond)
		gotAB, gotBA := n.InferLogitSplitScratch2(s, aFirst, bSecond, bFirst, aSecond)
		if gotAB != wantAB || gotBA != wantBA {
			t.Fatalf("trial %d: dual pass (%v, %v) != reference (%v, %v)",
				trial, gotAB, gotBA, wantAB, wantBA)
		}
	}
}

// TestSplitOrderTracksConcatenated documents the relationship with the
// concatenated-input path: the split accumulation order is a reassociation
// of InferLogit's, so the logits agree to rounding error but not
// necessarily bit for bit — which is why every pair-scoring path in the
// detector standardizes on the split order.
func TestSplitOrderTracksConcatenated(t *testing.T) {
	n := NewPaperNetwork(4)
	rng := rand.New(rand.NewSource(14))
	l0 := n.Layers[0]
	for trial := 0; trial < 20; trial++ {
		a, b := randVec(rng, 48), randVec(rng, 48)
		pair := append(append(make([]float64, 0, 96), a...), b...)
		concat := n.InferLogit(pair)
		split := n.InferLogitSplit(l0.HalfApply(a, 0, true), l0.HalfApply(b, 48, false))
		if math.Abs(concat-split) > 1e-9*(1+math.Abs(concat)) {
			t.Fatalf("trial %d: split logit %v too far from concatenated %v", trial, split, concat)
		}
	}
}

// TestInferSplitScratchAllocFree: the engine forward pass must not touch
// the heap once the Scratch exists.
func TestInferSplitScratchAllocFree(t *testing.T) {
	n := NewPaperNetwork(5)
	rng := rand.New(rand.NewSource(15))
	l0 := n.Layers[0]
	a, b := randVec(rng, 48), randVec(rng, 48)
	aFirst, aSecond := l0.HalfApply(a, 0, true), l0.HalfApply(a, 48, false)
	bFirst, bSecond := l0.HalfApply(b, 0, true), l0.HalfApply(b, 48, false)
	s := n.NewScratch()
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		ab, ba := n.InferLogitSplitScratch2(s, aFirst, bSecond, bFirst, aSecond)
		sink += ab + ba
	})
	if allocs != 0 {
		t.Errorf("InferLogitSplitScratch2 allocates %.1f objects/op, want 0", allocs)
	}
	_ = sink
}
