package nn

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSigmoid(t *testing.T) {
	if got := Sigmoid(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Sigmoid(0) = %v", got)
	}
	if got := Sigmoid(100); got < 0.999999 {
		t.Errorf("Sigmoid(100) = %v", got)
	}
	if got := Sigmoid(-100); got > 1e-6 {
		t.Errorf("Sigmoid(-100) = %v", got)
	}
	// Stable and bounded everywhere.
	f := func(x float64) bool {
		s := Sigmoid(x)
		return s >= 0 && s <= 1 && !math.IsNaN(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBCEWithLogit(t *testing.T) {
	// Loss is non-negative and gradient is sigmoid(l) - y everywhere.
	f := func(logit float64, label bool) bool {
		if math.IsInf(logit, 0) || math.IsNaN(logit) {
			return true
		}
		y := 0.0
		if label {
			y = 1
		}
		loss, grad := BCEWithLogit(logit, y)
		return loss >= -1e-12 && !math.IsNaN(loss) &&
			math.Abs(grad-(Sigmoid(logit)-y)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	loss, _ := BCEWithLogit(0, 1)
	if math.Abs(loss-math.Log(2)) > 1e-9 {
		t.Errorf("BCE(0,1) = %v, want ln2", loss)
	}
}

func TestGradientCheck(t *testing.T) {
	// Numerical gradient check on a tiny network.
	n, err := NewNetwork([]int{3, 4, 1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, -1.2, 0.8}
	y := 1.0
	n.beginTraining()
	logit := n.forward(x)
	_, grad := BCEWithLogit(logit, y)
	n.backward(grad)

	const eps = 1e-6
	for li, l := range n.Layers {
		for wi := range l.W {
			orig := l.W[wi]
			l.W[wi] = orig + eps
			lp, _ := BCEWithLogit(n.InferLogit(x), y)
			l.W[wi] = orig - eps
			lm, _ := BCEWithLogit(n.InferLogit(x), y)
			l.W[wi] = orig
			numeric := (lp - lm) / (2 * eps)
			if math.Abs(numeric-l.dW[wi]) > 1e-4 {
				t.Fatalf("layer %d W[%d]: analytic %v vs numeric %v", li, wi, l.dW[wi], numeric)
			}
		}
		for bi := range l.B {
			orig := l.B[bi]
			l.B[bi] = orig + eps
			lp, _ := BCEWithLogit(n.InferLogit(x), y)
			l.B[bi] = orig - eps
			lm, _ := BCEWithLogit(n.InferLogit(x), y)
			l.B[bi] = orig
			numeric := (lp - lm) / (2 * eps)
			if math.Abs(numeric-l.dB[bi]) > 1e-4 {
				t.Fatalf("layer %d B[%d]: analytic %v vs numeric %v", li, bi, l.dB[bi], numeric)
			}
		}
	}
}

// xorSamples builds a non-linearly-separable dataset the network must be
// able to fit (proves the ReLU layers and optimizer actually work).
func xorSamples(n int, seed int64) []Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		a := rng.Float64()*2 - 1
		b := rng.Float64()*2 - 1
		y := 0.0
		if (a > 0) != (b > 0) {
			y = 1
		}
		out = append(out, Sample{X: []float64{a, b}, Y: y})
	}
	return out
}

func TestTrainLearnsXOR(t *testing.T) {
	n, err := NewNetwork([]int{2, 16, 8, 1}, 42)
	if err != nil {
		t.Fatal(err)
	}
	train := xorSamples(2000, 1)
	val := xorSamples(500, 2)
	hist, err := Train(n, train, val, TrainConfig{Epochs: 30, BatchSize: 32, LR: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	last := hist.Epochs[len(hist.Epochs)-1]
	if last.ValAcc < 0.95 {
		t.Errorf("XOR val accuracy %.3f, want >= 0.95", last.ValAcc)
	}
	if auc := AUC(n, val); auc < 0.97 {
		t.Errorf("XOR AUC %.3f, want >= 0.97", auc)
	}
	// Loss should broadly decrease.
	if hist.Epochs[0].TrainLoss <= last.TrainLoss {
		t.Errorf("training loss did not decrease: %v -> %v",
			hist.Epochs[0].TrainLoss, last.TrainLoss)
	}
}

func TestTrainValidatesInput(t *testing.T) {
	n, _ := NewNetwork([]int{3, 1}, 0)
	if _, err := Train(n, nil, nil, TrainConfig{}); err == nil {
		t.Error("want error for empty training set")
	}
	bad := []Sample{{X: []float64{1, 2}, Y: 0}}
	if _, err := Train(n, bad, nil, TrainConfig{}); err == nil {
		t.Error("want error for dimension mismatch")
	}
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork([]int{5}, 0); err == nil {
		t.Error("want error for single width")
	}
	if _, err := NewNetwork([]int{5, 3}, 0); err == nil {
		t.Error("want error for non-1 output width")
	}
}

func TestPaperNetworkShape(t *testing.T) {
	n := NewPaperNetwork(1)
	if n.InputDim() != 96 {
		t.Errorf("input dim %d, want 96", n.InputDim())
	}
	if len(n.Layers) != 6 {
		t.Errorf("%d dense layers, want 6 (the paper's 6-layer sequential model)", len(n.Layers))
	}
	if n.NumParams() == 0 {
		t.Error("no parameters")
	}
}

func TestSerializeRoundtrip(t *testing.T) {
	n, _ := NewNetwork([]int{4, 8, 1}, 99)
	x := []float64{0.1, -0.5, 2.0, 0.7}
	want := n.Predict(x)
	b, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	var restored Network
	if err := json.Unmarshal(b, &restored); err != nil {
		t.Fatal(err)
	}
	if got := restored.Predict(x); math.Abs(got-want) > 1e-15 {
		t.Errorf("prediction changed after roundtrip: %v vs %v", got, want)
	}
}

// TestTrainingStateDropped pins that only Train holds backprop state: a
// restored network and a trained one keep their weights and nothing else.
func TestTrainingStateDropped(t *testing.T) {
	trained, _ := NewNetwork([]int{2, 8, 1}, 11)
	if _, err := Train(trained, xorSamples(200, 4), xorSamples(50, 5), TrainConfig{Epochs: 2, BatchSize: 32, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(trained)
	if err != nil {
		t.Fatal(err)
	}
	var restored Network
	if err := json.Unmarshal(b, &restored); err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]*Network{"trained": trained, "restored": &restored} {
		if n.masks != nil {
			t.Errorf("%s: ReLU masks kept", name)
		}
		for li, l := range n.Layers {
			if l.dW != nil || l.dB != nil || l.lastX != nil {
				t.Errorf("%s: layer %d keeps training buffers (dW %d, dB %d, lastX %d)",
					name, li, len(l.dW), len(l.dB), len(l.lastX))
			}
		}
	}
}

func TestSerializeRejectsGarbage(t *testing.T) {
	var n Network
	for _, s := range []string{`{}`, `{"widths":[3]}`, `{"widths":[2,1],"w":[[1]],"b":[[0]]}`, `not json`} {
		if err := json.Unmarshal([]byte(s), &n); err == nil {
			t.Errorf("accepted garbage %q", s)
		}
	}
}

func TestAUCExtremes(t *testing.T) {
	n, _ := NewNetwork([]int{1, 4, 1}, 5)
	// Perfectly separable by construction after training.
	var train []Sample
	for i := 0; i < 400; i++ {
		x := float64(i%2)*2 - 1
		train = append(train, Sample{X: []float64{x}, Y: (x + 1) / 2})
	}
	if _, err := Train(n, train, nil, TrainConfig{Epochs: 20, BatchSize: 16, LR: 0.05}); err != nil {
		t.Fatal(err)
	}
	if auc := AUC(n, train); auc < 0.999 {
		t.Errorf("separable AUC = %v, want ~1", auc)
	}
	// Degenerate single-class sets return 0.
	if auc := AUC(n, train[:1]); auc != 0 {
		t.Errorf("single-class AUC = %v, want 0", auc)
	}
}

func TestDeterministicTraining(t *testing.T) {
	build := func() float64 {
		n, _ := NewNetwork([]int{2, 8, 1}, 11)
		train := xorSamples(500, 4)
		if _, err := Train(n, train, nil, TrainConfig{Epochs: 3, BatchSize: 32, Seed: 5}); err != nil {
			t.Fatal(err)
		}
		return n.Predict([]float64{0.4, -0.2})
	}
	if build() != build() {
		t.Error("training is nondeterministic for identical seeds")
	}
}
