package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Sample is one training example: an input vector and a 0/1 label.
type Sample struct {
	X []float64
	Y float64
}

// Adam is the Adam optimizer with per-parameter moment estimates.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t  int
	mW [][]float64
	vW [][]float64
	mB [][]float64
	vB [][]float64
}

// NewAdam returns an Adam optimizer with the usual defaults.
func NewAdam(lr float64) *Adam {
	if lr <= 0 {
		lr = 1e-3
	}
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// Step applies accumulated gradients (scaled by 1/batch) to the network.
func (a *Adam) Step(n *Network, batch float64) {
	if a.mW == nil {
		a.mW = make([][]float64, len(n.Layers))
		a.vW = make([][]float64, len(n.Layers))
		a.mB = make([][]float64, len(n.Layers))
		a.vB = make([][]float64, len(n.Layers))
		for i, l := range n.Layers {
			a.mW[i] = make([]float64, len(l.W))
			a.vW[i] = make([]float64, len(l.W))
			a.mB[i] = make([]float64, len(l.B))
			a.vB[i] = make([]float64, len(l.B))
		}
	}
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for li, l := range n.Layers {
		update := func(p, g, m, v []float64) {
			for i := range p {
				gi := g[i] / batch
				m[i] = a.Beta1*m[i] + (1-a.Beta1)*gi
				v[i] = a.Beta2*v[i] + (1-a.Beta2)*gi*gi
				mhat := m[i] / bc1
				vhat := v[i] / bc2
				p[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Epsilon)
			}
		}
		update(l.W, l.dW, a.mW[li], a.vW[li])
		update(l.B, l.dB, a.mB[li], a.vB[li])
	}
}

// TrainConfig controls Train.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Seed      int64
	// Verbose, when non-nil, receives one line per epoch.
	Verbose func(string)
}

// EpochStats is one point of the training history — the data behind the
// paper's Fig. 8 accuracy/loss curves.
type EpochStats struct {
	Epoch     int
	TrainLoss float64
	TrainAcc  float64
	ValLoss   float64
	ValAcc    float64
}

// History is the full training history.
type History struct {
	Epochs []EpochStats
}

// Train fits the network on train, reporting validation stats per epoch.
func Train(n *Network, train, val []Sample, cfg TrainConfig) (*History, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("nn: empty training set")
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 10
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	for _, s := range train {
		if len(s.X) != n.InputDim() {
			return nil, fmt.Errorf("nn: sample dim %d, network expects %d", len(s.X), n.InputDim())
		}
	}
	n.beginTraining()
	defer n.endTraining()
	opt := NewAdam(cfg.LR)
	rng := rand.New(rand.NewSource(cfg.Seed))
	idx := make([]int, len(train))
	for i := range idx {
		idx[i] = i
	}
	hist := &History{}
	for e := 1; e <= cfg.Epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var lossSum float64
		var correct int
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			n.zeroGrads()
			for _, i := range idx[start:end] {
				s := train[i]
				logit := n.forward(s.X)
				loss, grad := BCEWithLogit(logit, s.Y)
				lossSum += loss
				if (logit > 0) == (s.Y > 0.5) {
					correct++
				}
				n.backward(grad)
			}
			opt.Step(n, float64(end-start))
		}
		st := EpochStats{
			Epoch:     e,
			TrainLoss: lossSum / float64(len(train)),
			TrainAcc:  float64(correct) / float64(len(train)),
		}
		if len(val) > 0 {
			st.ValLoss, st.ValAcc = Evaluate(n, val)
		}
		hist.Epochs = append(hist.Epochs, st)
		if cfg.Verbose != nil {
			cfg.Verbose(fmt.Sprintf(
				"epoch %2d  train loss %.4f acc %.4f  val loss %.4f acc %.4f",
				st.Epoch, st.TrainLoss, st.TrainAcc, st.ValLoss, st.ValAcc))
		}
	}
	return hist, nil
}

// Evaluate returns mean loss and accuracy over the samples.
func Evaluate(n *Network, samples []Sample) (loss, acc float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	var lossSum float64
	var correct int
	for _, s := range samples {
		logit := n.InferLogit(s.X)
		l, _ := BCEWithLogit(logit, s.Y)
		lossSum += l
		if (logit > 0) == (s.Y > 0.5) {
			correct++
		}
	}
	return lossSum / float64(len(samples)), float64(correct) / float64(len(samples))
}

// AUC computes the area under the ROC curve by rank statistics
// (Mann-Whitney U with midranks for ties), the metric the paper reports for
// training performance (0.971 for the state of the art it builds on).
func AUC(n *Network, samples []Sample) float64 {
	type scored struct {
		p float64
		y float64
	}
	ss := make([]scored, 0, len(samples))
	var pos, neg float64
	for _, s := range samples {
		ss = append(ss, scored{p: n.Predict(s.X), y: s.Y})
		if s.Y > 0.5 {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return 0
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].p < ss[j].p })
	var rankSum float64
	i := 0
	for i < len(ss) {
		j := i
		for j < len(ss) && ss[j].p == ss[i].p {
			j++
		}
		midrank := float64(i+j+1) / 2 // ranks are 1-based
		for k := i; k < j; k++ {
			if ss[k].y > 0.5 {
				rankSum += midrank
			}
		}
		i = j
	}
	return (rankSum - pos*(pos+1)/2) / (pos * neg)
}
