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

// eachBody runs f once per kernel body this machine has: the SIMD body
// (where the CPU has one) and the pure-Go body, forced on every row.
func eachBody(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	if simdBlocks == nil {
		t.Log("no SIMD body on this machine; testing the Go body only")
	} else {
		t.Run("simd", f)
	}
	t.Run("go", func(t *testing.T) {
		defer ForceGoKernel()()
		f(t)
	})
}

// specialValues are inputs whose arithmetic a reordered, fused or
// mis-vectorized kernel would get wrong: signed zeros, subnormals,
// infinities, NaN and values whose products overflow.
var specialValues = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2e-308, -1e-310,
	math.Inf(1), math.Inf(-1), math.NaN(), 1.7e308, -1.6e308, 1e300,
}

// sameBits reports whether a and b are the same float64 bit for bit, except
// that any two NaNs match. A NaN's payload is not part of the contract:
// when both addends are NaN, x86 keeps the first operand's payload, and Go
// treats float addition as commutative, so which payload survives depends
// on register allocation even between two Go loops.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestEngineApply2MatchesApply pins the Engine's two-input kernel to the
// reference Apply bit for bit on both inputs, under each body, across the
// paper's hidden-layer shapes and shapes that leave SIMD-block, four-row
// and odd-column tails, on random inputs and on inputs salted with special
// values.
func TestEngineApply2MatchesApply(t *testing.T) {
	shapes := [][2]int{{128, 64}, {64, 32}, {32, 16}, {16, 8}, {8, 1}, {5, 3}, {6, 7}, {40, 24}, {9, 6}}
	eachBody(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(16))
		for _, shape := range shapes {
			d := NewDense(shape[0], shape[1], rng)
			for i := range d.B {
				d.B[i] = rng.NormFloat64()
			}
			l := newEngineLayer(d)
			for trial := 0; trial < 20; trial++ {
				xA, xB := randVec(rng, shape[0]), randVec(rng, shape[0])
				if trial >= 10 { // salt a few columns of each input
					for k := 0; k < 1+shape[0]/8; k++ {
						xA[rng.Intn(len(xA))] = specialValues[rng.Intn(len(specialValues))]
						xB[rng.Intn(len(xB))] = specialValues[rng.Intn(len(specialValues))]
					}
				}
				wantA, wantB := d.Apply(xA), d.Apply(xB)
				gotA, gotB := make([]float64, shape[1]), make([]float64, shape[1])
				l.apply2(gotA, gotB, xA, xB)
				for o := range wantA {
					if !sameBits(gotA[o], wantA[o]) || !sameBits(gotB[o], wantB[o]) {
						t.Fatalf("%dx%d trial %d row %d: apply2 (%v, %v) != Apply (%v, %v)",
							shape[0], shape[1], trial, o, gotA[o], gotB[o], wantA[o], wantB[o])
					}
				}
			}
		}
	})
}

// TestEngineCopiesWeights: an Engine is a snapshot; it reads the weights
// the network had when it was built.
func TestEngineCopiesWeights(t *testing.T) {
	n := NewPaperNetwork(18)
	e := n.NewEngine()
	x := randVec(rand.New(rand.NewSource(18)), 128)
	want := n.Layers[1].Apply(x)
	n.Layers[1].W[0] += 1
	got, other := make([]float64, 64), make([]float64, 64)
	e.layers[0].apply2(got, other, x, x)
	if got[0] != want[0] {
		t.Fatalf("engine row 0 = %v after a weight change, want the snapshot's %v", got[0], want[0])
	}
}

// TestInferLogitSplitScratch2MatchesSplit: the Engine's dual-direction
// pass reproduces two independent reference passes bit for bit, under
// each kernel body.
func TestInferLogitSplitScratch2MatchesSplit(t *testing.T) {
	eachBody(t, func(t *testing.T) {
		n := NewPaperNetwork(6)
		rng := rand.New(rand.NewSource(17))
		e, s := n.NewEngine(), n.NewScratch()
		l0 := n.Layers[0]
		for trial := 0; trial < 50; trial++ {
			a, b := randVec(rng, 48), randVec(rng, 48)
			aFirst, aSecond := l0.HalfApply(a, 0, true), l0.HalfApply(a, 48, false)
			bFirst, bSecond := l0.HalfApply(b, 0, true), l0.HalfApply(b, 48, false)
			wantAB := n.InferLogitSplit(aFirst, bSecond)
			wantBA := n.InferLogitSplit(bFirst, aSecond)
			gotAB, gotBA := e.InferLogitSplitScratch2(s, aFirst, bSecond, bFirst, aSecond)
			if math.Float64bits(gotAB) != math.Float64bits(wantAB) ||
				math.Float64bits(gotBA) != math.Float64bits(wantBA) {
				t.Fatalf("trial %d: dual pass (%v, %v) != reference (%v, %v)",
					trial, gotAB, gotBA, wantAB, wantBA)
			}
		}
	})
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
	e, s := n.NewEngine(), n.NewScratch()
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		ab, ba := e.InferLogitSplitScratch2(s, aFirst, bSecond, bFirst, aSecond)
		sink += ab + ba
	})
	if allocs != 0 {
		t.Errorf("InferLogitSplitScratch2 allocates %.1f objects/op, want 0", allocs)
	}
	_ = sink
}
