// Package detector implements PATCHECKO's static stage: the deep-learning
// similarity model over pairs of 48-dimensional static feature vectors.
//
// Training follows the paper's protocol: two feature vectors are labelled
// similar when they come from the same source function compiled for
// different (architecture, optimization level) targets, dissimilar when
// they come from different source functions; functions are split into
// disjoint train/validation/test subsets (the paper uses 1,222,663 /
// 407,554 / 407,555 samples from 2,108 binaries); the model is the 6-layer
// sequential network with a 96-dimensional input shown in the paper's
// Fig. 3/4. At scan time the model scores a target function against a CVE
// reference vector, and everything above the decision threshold becomes a
// candidate for the dynamic stage.
package detector

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/features"
	"repro/internal/nn"
)

// PairDim is the model input width: two concatenated static vectors.
const PairDim = 2 * features.NumStatic

// FuncKey identifies a source function across compilations.
type FuncKey struct {
	Library  string
	Function string
}

// Groups collects, for every source function, its static feature vectors
// across all (arch, optlevel) compilations. It is the raw material for
// Dataset I.
type Groups map[FuncKey][]features.Vector

// Add appends a compilation's vector for the function.
func (g Groups) Add(lib, fn string, v features.Vector) {
	k := FuncKey{Library: lib, Function: fn}
	g[k] = append(g[k], v)
}

// Keys returns the function keys in deterministic order.
func (g Groups) Keys() []FuncKey {
	keys := make([]FuncKey, 0, len(g))
	for k := range g {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Library != keys[j].Library {
			return keys[i].Library < keys[j].Library
		}
		return keys[i].Function < keys[j].Function
	})
	return keys
}

// NumVectors counts all stored vectors.
func (g Groups) NumVectors() int {
	n := 0
	for _, vs := range g {
		n += len(vs)
	}
	return n
}

// Normalizer standardizes feature vectors: signed log scaling followed by
// per-dimension z-scoring with statistics frozen at training time.
type Normalizer struct {
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
}

func slog(x float64) float64 {
	if x < 0 {
		return -math.Log1p(-x)
	}
	return math.Log1p(x)
}

// FitNormalizer computes normalization statistics over the vectors.
func FitNormalizer(vecs []features.Vector) *Normalizer {
	n := &Normalizer{
		Mean: make([]float64, features.NumStatic),
		Std:  make([]float64, features.NumStatic),
	}
	if len(vecs) == 0 {
		for i := range n.Std {
			n.Std[i] = 1
		}
		return n
	}
	for _, v := range vecs {
		for i, x := range v {
			n.Mean[i] += slog(x)
		}
	}
	for i := range n.Mean {
		n.Mean[i] /= float64(len(vecs))
	}
	for _, v := range vecs {
		for i, x := range v {
			d := slog(x) - n.Mean[i]
			n.Std[i] += d * d
		}
	}
	for i := range n.Std {
		n.Std[i] = math.Sqrt(n.Std[i] / float64(len(vecs)))
		if n.Std[i] < 1e-9 {
			n.Std[i] = 1
		}
	}
	return n
}

// Apply standardizes one vector.
func (n *Normalizer) Apply(v features.Vector) []float64 {
	out := make([]float64, features.NumStatic)
	n.ApplyInto(out, v)
	return out
}

// ApplyInto standardizes one vector into a caller-owned buffer of length
// NumStatic, allocation-free.
func (n *Normalizer) ApplyInto(dst []float64, v features.Vector) {
	for i, x := range v {
		dst[i] = (slog(x) - n.Mean[i]) / n.Std[i]
	}
}

// Model is a trained similarity detector. Its scorers share one nn.Engine,
// the hidden layers' weights laid out for the batched kernel: Train and
// Unmarshal build it, and NewScorer does for a Model assembled by hand. So
// the weights must not change once a Model is trained, unmarshalled or
// scoring.
type Model struct {
	Net  *nn.Network `json:"net"`
	Norm *Normalizer `json:"norm"`
	// Threshold is the similarity cut-off used by Candidates.
	Threshold float64 `json:"threshold"`

	engineOnce sync.Once
	engine     *nn.Engine
}

// TrainConfig controls dataset construction and optimization.
type TrainConfig struct {
	Seed int64
	// NegPerPos is the number of dissimilar pairs per similar pair.
	NegPerPos int
	// MaxPosPerFunc bounds the number of similar pairs drawn per function.
	MaxPosPerFunc int
	Epochs        int
	BatchSize     int
	LR            float64
	// TrainFrac/ValFrac split the FUNCTIONS (not samples), keeping the
	// test set disjoint at the function level as in the paper.
	TrainFrac float64
	ValFrac   float64
	Verbose   func(string)
}

// DefaultTrainConfig mirrors the paper's setup at laptop scale.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Seed:          1,
		NegPerPos:     1,
		MaxPosPerFunc: 12,
		Epochs:        8,
		BatchSize:     64,
		LR:            1e-3,
		TrainFrac:     0.6,
		ValFrac:       0.2,
	}
}

// Dataset is a constructed pair dataset with the function-level split.
type Dataset struct {
	Train []nn.Sample
	Val   []nn.Sample
	Test  []nn.Sample
	Norm  *Normalizer
}

// BuildDataset assembles similar/dissimilar pairs from the groups, splits
// by function, and fits the normalizer on the training portion.
func BuildDataset(groups Groups, cfg TrainConfig) (*Dataset, error) {
	keys := groups.Keys()
	if len(keys) < 3 {
		return nil, fmt.Errorf("detector: need at least 3 functions, have %d", len(keys))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	nTrain := int(float64(len(keys)) * cfg.TrainFrac)
	nVal := int(float64(len(keys)) * cfg.ValFrac)
	if nTrain == 0 {
		nTrain = 1
	}
	if nVal == 0 {
		nVal = 1
	}
	if nTrain+nVal >= len(keys) {
		nTrain, nVal = len(keys)-2, 1
	}
	splits := [][]FuncKey{
		keys[:nTrain],
		keys[nTrain : nTrain+nVal],
		keys[nTrain+nVal:],
	}
	// Fit the normalizer on training-function vectors only.
	var trainVecs []features.Vector
	for _, k := range splits[0] {
		trainVecs = append(trainVecs, groups[k]...)
	}
	norm := FitNormalizer(trainVecs)

	build := func(ks []FuncKey) []nn.Sample {
		var out []nn.Sample
		for _, k := range ks {
			vs := groups[k]
			if len(vs) < 2 {
				continue
			}
			// Positive pairs: distinct compilations of the same function.
			nPos := cfg.MaxPosPerFunc
			if nPos <= 0 {
				nPos = 8
			}
			for c := 0; c < nPos; c++ {
				i := rng.Intn(len(vs))
				j := rng.Intn(len(vs))
				if i == j {
					continue
				}
				out = append(out, nn.Sample{X: pairInput(norm, vs[i], vs[j]), Y: 1})
				// Negative pairs: this function vs a different one.
				for neg := 0; neg < cfg.NegPerPos; neg++ {
					ok := ks[rng.Intn(len(ks))]
					if ok == k {
						continue
					}
					ovs := groups[ok]
					if len(ovs) == 0 {
						continue
					}
					out = append(out, nn.Sample{
						X: pairInput(norm, vs[i], ovs[rng.Intn(len(ovs))]),
						Y: 0,
					})
				}
			}
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	return &Dataset{
		Train: build(splits[0]),
		Val:   build(splits[1]),
		Test:  build(splits[2]),
		Norm:  norm,
	}, nil
}

func pairInput(norm *Normalizer, a, b features.Vector) []float64 {
	x := make([]float64, PairDim)
	norm.ApplyInto(x[:features.NumStatic], a)
	norm.ApplyInto(x[features.NumStatic:], b)
	return x
}

// Train builds the dataset and fits the paper's 6-layer model, returning
// the model, the training history (Fig. 8) and the dataset used.
func Train(groups Groups, cfg TrainConfig) (*Model, *nn.History, *Dataset, error) {
	ds, err := BuildDataset(groups, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	net := nn.NewPaperNetwork(cfg.Seed + 1)
	hist, err := nn.Train(net, ds.Train, ds.Val, nn.TrainConfig{
		Epochs:    cfg.Epochs,
		BatchSize: cfg.BatchSize,
		LR:        cfg.LR,
		Seed:      cfg.Seed + 2,
		Verbose:   cfg.Verbose,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	// The candidate threshold is deliberately recall-oriented: the paper's
	// static stage keeps hundreds of candidates per query (600+ of 3000+
	// functions) and relies on the dynamic stage to prune false positives.
	m := &Model{Net: net, Norm: ds.Norm, Threshold: 0.25}
	m.hiddenEngine()
	return m, hist, ds, nil
}

// hiddenEngine returns the model's nn.Engine, building it on first use.
func (m *Model) hiddenEngine() *nn.Engine {
	m.engineOnce.Do(func() { m.engine = m.Net.NewEngine() })
	return m.engine
}

// Similarity scores a pair of raw feature vectors in [0,1]; the score is
// symmetrized over both input orders. It uses the network's stateless
// inference path, so one model can score from many goroutines at once —
// the parallel scan engine depends on this.
//
// Each vector is normalized once and pushed through both halves of the
// first layer once, then reused for both symmetrized orders. Scores follow
// the canonical split accumulation order (see package nn), which the
// batched Scorer shares — the two paths are bit-identical, so this is the
// reference implementation the batched engine is verified against.
func (m *Model) Similarity(a, b features.Vector) float64 {
	l0 := m.Net.Layers[0]
	na, nb := m.Norm.Apply(a), m.Norm.Apply(b)
	aFirst := l0.HalfApply(na, 0, true)
	aSecond := l0.HalfApply(na, features.NumStatic, false)
	bFirst := l0.HalfApply(nb, 0, true)
	bSecond := l0.HalfApply(nb, features.NumStatic, false)
	ab := nn.Sigmoid(m.Net.InferLogitSplit(aFirst, bSecond))
	ba := nn.Sigmoid(m.Net.InferLogitSplit(bFirst, aSecond))
	return (ab + ba) / 2
}

// Candidate is one function the static stage flags as similar to a query.
type Candidate struct {
	Index int     // index into the scanned function list
	Score float64 // similarity in [0,1]
}

// Candidates scores every target function against the query vector and
// returns those above the model threshold, highest score first. This is
// the step that turns a whole firmware image (thousands of functions) into
// a candidate list for the dynamic stage.
func (m *Model) Candidates(query features.Vector, targets []features.Vector) []Candidate {
	var out []Candidate
	for i, tv := range targets {
		s := m.Similarity(query, tv)
		if s >= m.Threshold {
			out = append(out, Candidate{Index: i, Score: s})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Index < out[j].Index
	})
	return out
}

// TestMetrics evaluates the model on held-out samples: accuracy, loss, AUC.
func (m *Model) TestMetrics(samples []nn.Sample) (acc, loss, auc float64) {
	loss, acc = nn.Evaluate(m.Net, samples)
	auc = nn.AUC(m.Net, samples)
	return acc, loss, auc
}

// Marshal serializes the model to JSON.
func (m *Model) Marshal() ([]byte, error) { return json.Marshal(m) }

// Unmarshal restores a model serialized with Marshal.
func Unmarshal(b []byte) (*Model, error) {
	m := &Model{Net: &nn.Network{}}
	if err := json.Unmarshal(b, m); err != nil {
		return nil, err
	}
	if m.Net == nil || m.Norm == nil {
		return nil, fmt.Errorf("detector: incomplete model")
	}
	if m.Threshold == 0 {
		m.Threshold = 0.5
	}
	m.hiddenEngine()
	return m, nil
}
