// Package nn is a from-scratch feedforward neural network — the stand-in
// for the paper's Keras/TensorFlow stack. It provides exactly what
// PATCHECKO's similarity detector needs: a sequential model of dense layers
// with ReLU activations and a sigmoid output trained with binary
// cross-entropy and Adam, plus accuracy/loss/AUC metrics and JSON
// serialization. The paper's model is a 6-layer sequential network over a
// 96-dimensional input (a pair of 48-dimensional static feature vectors);
// NewPaperNetwork builds that shape.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Dense is one fully-connected layer: y = W.x + b.
type Dense struct {
	In, Out int
	W       []float64 // Out x In, row-major
	B       []float64

	// Training state, allocated by Train and dropped when it returns: the
	// last Forward input and the accumulated parameter gradients.
	lastX []float64
	dW    []float64
	dB    []float64
}

// NewDense initializes a layer with He-uniform weights drawn from rng.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{
		In: in, Out: out,
		W: make([]float64, in*out),
		B: make([]float64, out),
	}
	limit := math.Sqrt(6.0 / float64(in))
	for i := range d.W {
		d.W[i] = (rng.Float64()*2 - 1) * limit
	}
	return d
}

// Forward computes the layer output, remembering the input for Backward.
func (d *Dense) Forward(x []float64) []float64 {
	d.lastX = x
	return d.Apply(x)
}

// Apply computes the layer output without recording backprop state. Unlike
// Forward it does not mutate the layer, so it is safe for concurrent use.
func (d *Dense) Apply(x []float64) []float64 {
	y := make([]float64, d.Out)
	for o := 0; o < d.Out; o++ {
		row := d.W[o*d.In : (o+1)*d.In]
		s := d.B[o]
		for i, xi := range x {
			s += float64(row[i] * xi) // rounded product: never fused, see infer.go
		}
		y[o] = s
	}
	return y
}

// Backward accumulates parameter gradients for the last Forward input and
// returns the gradient with respect to that input.
func (d *Dense) Backward(dout []float64) []float64 {
	dx := make([]float64, d.In)
	for o := 0; o < d.Out; o++ {
		g := dout[o]
		if g == 0 {
			continue
		}
		row := d.W[o*d.In : (o+1)*d.In]
		drow := d.dW[o*d.In : (o+1)*d.In]
		d.dB[o] += g
		for i, xi := range d.lastX {
			drow[i] += g * xi
			dx[i] += g * row[i]
		}
	}
	return dx
}

func (d *Dense) zeroGrads() {
	for i := range d.dW {
		d.dW[i] = 0
	}
	for i := range d.dB {
		d.dB[i] = 0
	}
}

// Network is a stack of dense layers with ReLU between them and a single
// logit output (apply Sigmoid for a probability).
type Network struct {
	Layers []*Dense

	// ReLU masks per layer boundary, for backprop; nil outside Train.
	masks [][]bool
}

// NewNetwork builds a network with the given layer widths, e.g.
// [96, 128, 64, 1]. Widths must start with the input dimension and end
// with 1.
func NewNetwork(widths []int, seed int64) (*Network, error) {
	if len(widths) < 2 {
		return nil, fmt.Errorf("nn: need at least input and output widths")
	}
	if widths[len(widths)-1] != 1 {
		return nil, fmt.Errorf("nn: final width must be 1, got %d", widths[len(widths)-1])
	}
	rng := rand.New(rand.NewSource(seed))
	n := &Network{}
	for i := 0; i+1 < len(widths); i++ {
		n.Layers = append(n.Layers, NewDense(widths[i], widths[i+1], rng))
	}
	return n, nil
}

// NewPaperNetwork builds the paper's 6-layer sequential model over the
// 96-dimensional pair input.
func NewPaperNetwork(seed int64) *Network {
	n, err := NewNetwork([]int{96, 128, 64, 32, 16, 8, 1}, seed)
	if err != nil {
		panic(err) // widths are static and valid
	}
	return n
}

// InputDim returns the expected input width.
func (n *Network) InputDim() int { return n.Layers[0].In }

// forward runs a training forward pass and returns the raw output logit,
// recording each layer's input and ReLU mask for backward. Only Train's
// state (see beginTraining) has room for them.
func (n *Network) forward(x []float64) float64 {
	h := x
	for li, l := range n.Layers {
		h = l.Forward(h)
		if li == len(n.Layers)-1 {
			break
		}
		mask := make([]bool, len(h))
		for i := range h {
			if h[i] > 0 {
				mask[i] = true
			} else {
				h[i] = 0
			}
		}
		n.masks[li] = mask
	}
	return h[0]
}

// Predict returns the probability that x is a positive pair.
func (n *Network) Predict(x []float64) float64 {
	return Sigmoid(n.InferLogit(x))
}

// InferLogit runs a forward pass and returns the raw output logit. Unlike
// the training pass it records nothing (no saved layer inputs, no ReLU
// masks): it is a pure read of the weights, safe to call from many
// goroutines at once.
func (n *Network) InferLogit(x []float64) float64 {
	h := x
	for li, l := range n.Layers {
		h = l.Apply(h)
		if li == len(n.Layers)-1 {
			break
		}
		for i, v := range h {
			h[i] = max(v, 0)
		}
	}
	return h[0]
}

// backward runs backprop from a single logit gradient, accumulating layer
// gradients (call after forward on the same input).
func (n *Network) backward(dlogit float64) {
	grad := []float64{dlogit}
	for li := len(n.Layers) - 1; li >= 0; li-- {
		grad = n.Layers[li].Backward(grad)
		if li > 0 {
			mask := n.masks[li-1]
			for i := range grad {
				if !mask[i] {
					grad[i] = 0
				}
			}
		}
	}
}

func (n *Network) zeroGrads() {
	for _, l := range n.Layers {
		l.zeroGrads()
	}
}

// beginTraining allocates the backprop state: zeroed parameter gradients
// per layer and a slot for each layer boundary's ReLU mask.
func (n *Network) beginTraining() {
	for _, l := range n.Layers {
		l.dW = make([]float64, len(l.W))
		l.dB = make([]float64, len(l.B))
	}
	n.masks = make([][]bool, len(n.Layers))
}

// endTraining drops the backprop state, so a trained network keeps only its
// weights.
func (n *Network) endTraining() {
	for _, l := range n.Layers {
		l.lastX, l.dW, l.dB = nil, nil, nil
	}
	n.masks = nil
}

// NumParams returns the total trainable parameter count.
func (n *Network) NumParams() int {
	total := 0
	for _, l := range n.Layers {
		total += len(l.W) + len(l.B)
	}
	return total
}

// Sigmoid is the logistic function.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// BCEWithLogit returns the numerically-stable binary cross-entropy loss of
// a logit against label y (0 or 1), plus the gradient dloss/dlogit.
func BCEWithLogit(logit, y float64) (loss, grad float64) {
	// loss = max(l,0) - l*y + log(1+exp(-|l|))
	loss = math.Max(logit, 0) - logit*y + math.Log1p(math.Exp(-math.Abs(logit)))
	grad = Sigmoid(logit) - y
	return loss, grad
}
