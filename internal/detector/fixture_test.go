package detector_test

import (
	"math"
	"testing"

	"repro/internal/corpus"
	"repro/internal/detector"
	"repro/internal/disasm"
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/vulndb"
)

// TestScorerPairMatchesSimilarityTinyGrid pins the batched scorer to the
// reference Model.Similarity under math.Float64bits on a trained model's
// real grid: the seed-42 tiny model, every vulnerable and patched reference
// of the tiny vulnerability DB as a query, against every function of every
// image of the tiny ThingOS firmware — under each of the nn kernel's bodies.
func TestScorerPairMatchesSimilarityTinyGrid(t *testing.T) {
	s := corpus.ScaleTiny
	groups, err := corpus.TrainingGroups(s, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := detector.DefaultTrainConfig()
	cfg.Seed, cfg.Epochs, cfg.MaxPosPerFunc = 42, s.Epochs, s.MaxPosPerFunc
	m, _, _, err := detector.Train(groups, cfg)
	if err != nil {
		t.Fatal(err)
	}
	db, err := corpus.BuildDB(s, 42)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := corpus.BuildFirmware(corpus.ThingOS, s)
	if err != nil {
		t.Fatal(err)
	}
	var queries []features.Vector
	for _, e := range db.Entries {
		for _, ref := range []func(string) (*vulndb.Ref, error){e.VulnRef, e.PatchedRef} {
			r, err := ref(fw.Arch)
			if err != nil {
				t.Fatal(err)
			}
			queries = append(queries, r.StaticVec())
		}
	}
	var images [][]features.Vector
	for _, im := range fw.Images {
		dis, err := disasm.Disassemble(im)
		if err != nil {
			t.Fatal(err)
		}
		vecs := make([]features.Vector, len(dis.Funcs))
		for i, f := range dis.Funcs {
			vecs[i] = features.Extract(dis, f)
		}
		images = append(images, vecs)
	}

	check := func(t *testing.T) {
		sc := m.NewScorer()
		pairs := 0
		for qi, q := range queries {
			qh := m.PrepareQuery(q)
			for ii, vecs := range images {
				ts := m.PrepareTargets(vecs)
				for ti, tv := range vecs {
					got, want := sc.Pair(qh, ts, ti), m.Similarity(q, tv)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("query %d image %d target %d: Scorer.Pair %v != Similarity %v",
							qi, ii, ti, got, want)
					}
					pairs++
				}
			}
		}
		t.Logf("%d pairs bit-identical", pairs)
	}
	t.Run("detected", check)
	t.Run("go", func(t *testing.T) {
		defer nn.ForceGoKernel()()
		check(t)
	})
}
