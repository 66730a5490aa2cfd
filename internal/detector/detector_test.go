package detector

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/disasm"
	"repro/internal/features"
	"repro/internal/isa"
	"repro/internal/minic"
)

// buildGroups compiles a few generated libraries across every (arch, level)
// pair and collects per-function feature vectors — a miniature Dataset I.
func buildGroups(t *testing.T, nLibs, nFuncs int) Groups {
	t.Helper()
	groups := make(Groups)
	for li := 0; li < nLibs; li++ {
		mod := minic.GenLibrary(minic.GenConfig{
			Seed: int64(1000 + li), Name: "lib" + string(rune('a'+li)), NumFuncs: nFuncs,
		})
		for _, arch := range isa.All() {
			for _, lvl := range compiler.Levels() {
				im, err := compiler.Compile(mod, arch, lvl)
				if err != nil {
					t.Fatal(err)
				}
				dis, err := disasm.Disassemble(im)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range dis.Funcs {
					groups.Add(mod.Name, f.Name, features.Extract(dis, f))
				}
			}
		}
	}
	return groups
}

func TestGroupsBookkeeping(t *testing.T) {
	g := make(Groups)
	var v features.Vector
	g.Add("libx", "f", v)
	g.Add("libx", "f", v)
	g.Add("liba", "g", v)
	if g.NumVectors() != 3 {
		t.Errorf("NumVectors = %d, want 3", g.NumVectors())
	}
	keys := g.Keys()
	if len(keys) != 2 || keys[0].Library != "liba" {
		t.Errorf("Keys = %v, want sorted 2 entries", keys)
	}
}

func TestNormalizer(t *testing.T) {
	vecs := []features.Vector{}
	for i := 0; i < 10; i++ {
		var v features.Vector
		for j := range v {
			v[j] = float64(i * j)
		}
		vecs = append(vecs, v)
	}
	n := FitNormalizer(vecs)
	// Standardized training data has ~zero mean per dimension.
	sums := make([]float64, features.NumStatic)
	for _, v := range vecs {
		for j, x := range n.Apply(v) {
			sums[j] += x
		}
	}
	for j, s := range sums {
		if s/float64(len(vecs)) > 1e-9 && j > 0 { // dim 0 is all-zero: std clamped
			t.Errorf("dim %d mean %v after normalization", j, s/float64(len(vecs)))
		}
	}
	// Degenerate cases don't divide by zero.
	empty := FitNormalizer(nil)
	out := empty.Apply(vecs[0])
	for _, x := range out {
		if x != x { // NaN check
			t.Fatal("NaN after normalizing with empty-fit normalizer")
		}
	}
}

func TestTrainAndDetect(t *testing.T) {
	groups := buildGroups(t, 3, 12)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 10
	model, hist, ds, err := Train(groups, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Epochs) != 10 {
		t.Fatalf("history has %d epochs", len(hist.Epochs))
	}
	acc, _, auc := model.TestMetrics(ds.Test)
	t.Logf("test acc %.3f auc %.3f (train %d, val %d, test %d samples)",
		acc, auc, len(ds.Train), len(ds.Val), len(ds.Test))
	if acc < 0.80 {
		t.Errorf("test accuracy %.3f below 0.80 — the model should comfortably beat this (paper: >0.93)", acc)
	}
	if auc < 0.85 {
		t.Errorf("test AUC %.3f below 0.85", auc)
	}

	// Retrieval check: a function's amd64/O0 vector should retrieve the
	// same function's xarm64/O3 vector above threshold.
	mod := minic.GenLibrary(minic.GenConfig{Seed: 1000, Name: "liba", NumFuncs: 12})
	vecsFor := func(arch *isa.Arch, lvl compiler.Level) map[string]features.Vector {
		im, err := compiler.Compile(mod, arch, lvl)
		if err != nil {
			t.Fatal(err)
		}
		dis, err := disasm.Disassemble(im)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]features.Vector)
		for _, f := range dis.Funcs {
			out[f.Name] = features.Extract(dis, f)
		}
		return out
	}
	qs := vecsFor(isa.AMD64, compiler.O0)
	ts := vecsFor(isa.XARM64, compiler.O3)
	names := make([]string, 0, len(ts))
	targets := make([]features.Vector, 0, len(ts))
	for n, v := range ts {
		names = append(names, n)
		targets = append(targets, v)
	}
	hits := 0
	for qname, qv := range qs {
		cands := model.Candidates(qv, targets)
		for rank, c := range cands {
			if names[c.Index] == qname && rank < 3 {
				hits++
				break
			}
		}
	}
	t.Logf("cross-arch retrieval: %d/%d queries have the true match in the top 3 candidates", hits, len(qs))
	if hits < len(qs)/2 {
		t.Errorf("retrieval too weak: %d/%d", hits, len(qs))
	}
}

func TestModelSerializeRoundtrip(t *testing.T) {
	groups := buildGroups(t, 2, 6)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 2
	model, _, _, err := Train(groups, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := model.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	var a, c features.Vector
	for i := range a {
		a[i] = float64(i)
		c[i] = float64(i * 2)
	}
	if model.Similarity(a, c) != restored.Similarity(a, c) {
		t.Error("similarity changed after roundtrip")
	}
	if _, err := Unmarshal([]byte(`{"oops"`)); err == nil {
		t.Error("want error for garbage model")
	}
}

func TestBuildDatasetValidation(t *testing.T) {
	if _, err := BuildDataset(make(Groups), DefaultTrainConfig()); err == nil {
		t.Error("want error for empty groups")
	}
}

func TestSimilarityIsSymmetric(t *testing.T) {
	groups := buildGroups(t, 2, 5)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 1
	model, _, _, err := Train(groups, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var a, b features.Vector
	for i := range a {
		a[i] = float64(i % 7)
		b[i] = float64(i % 3)
	}
	if model.Similarity(a, b) != model.Similarity(b, a) {
		t.Error("similarity should be symmetric by construction")
	}
}
