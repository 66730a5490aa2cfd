package nn

import (
	"math/rand"
	"testing"
)

func BenchmarkForward(b *testing.B) {
	n := NewPaperNetwork(1)
	x := make([]float64, 96)
	for i := range x {
		x[i] = float64(i) / 96
	}
	n.beginTraining()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = n.forward(x)
	}
}

func BenchmarkTrainStep(b *testing.B) {
	n := NewPaperNetwork(1)
	samples := make([]Sample, 64)
	for i := range samples {
		x := make([]float64, 96)
		for j := range x {
			x[j] = float64((i*j)%7) / 7
		}
		samples[i] = Sample{X: x, Y: float64(i % 2)}
	}
	n.beginTraining()
	opt := NewAdam(1e-3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.zeroGrads()
		for _, s := range samples {
			logit := n.forward(s.X)
			_, grad := BCEWithLogit(logit, s.Y)
			n.backward(grad)
		}
		opt.Step(n, float64(len(samples)))
	}
	b.ReportMetric(float64(len(samples))*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkInferPair times the static stage's per-pair work on the paper
// network: one symmetrized pair (both directions) through the Engine from
// cached first-layer halves, under each kernel body.
func BenchmarkInferPair(b *testing.B) {
	n := NewPaperNetwork(1)
	rng := rand.New(rand.NewSource(1))
	l0 := n.Layers[0]
	q, t := randVec(rng, 48), randVec(rng, 48)
	qFirst, qSecond := l0.HalfApply(q, 0, true), l0.HalfApply(q, 48, false)
	tFirst, tSecond := l0.HalfApply(t, 0, true), l0.HalfApply(t, 48, false)
	e, s := n.NewEngine(), n.NewScratch()
	run := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			qt, tq := e.InferLogitSplitScratch2(s, qFirst, tSecond, tFirst, qSecond)
			benchSink += qt + tq
		}
	}
	if simdBlocks != nil {
		b.Run("simd", run)
	}
	b.Run("go", func(b *testing.B) {
		defer ForceGoKernel()()
		run(b)
	})
}

var benchSink float64
