package dynamic

import (
	"math/rand"
	"testing"
)

func BenchmarkSimilarity(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	mk := func() []Profile {
		ps := make([]Profile, 4)
		for i := range ps {
			for j := range ps[i] {
				ps[i][j] = float64(rng.Intn(1000))
			}
		}
		return ps
	}
	f, g := mk(), mk()
	for i := 0; i < b.N; i++ {
		_ = Similarity(f, g)
	}
}
