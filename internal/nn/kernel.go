package nn

// Engine runs a network's hidden layers — every layer after the first —
// for the static stage's pair scorer. It holds a column-major copy of each
// layer's weights, wt[j*Out+o] = W[o*In+j], so that one input column's
// weights for consecutive output rows are adjacent in memory: a SIMD lane
// is one output row's accumulator. Build one per trained model with
// NewEngine and share it; it is read-only and safe for concurrent use.
type Engine struct {
	layers []engineLayer
}

type engineLayer struct {
	in, out int
	wt      []float64 // in×out, column-major: wt[j*out+o] = W[o*in+j]
	b       []float64
}

// NewEngine lays out the hidden layers' weights column-major. It copies the
// weights, so later changes to n are not seen by the Engine: build it once
// training is done.
func (n *Network) NewEngine() *Engine {
	e := &Engine{layers: make([]engineLayer, 0, len(n.Layers)-1)}
	for _, d := range n.Layers[1:] {
		e.layers = append(e.layers, newEngineLayer(d))
	}
	return e
}

func newEngineLayer(d *Dense) engineLayer {
	l := engineLayer{
		in: d.In, out: d.Out,
		wt: make([]float64, len(d.W)),
		b:  append([]float64(nil), d.B...),
	}
	for o := 0; o < d.Out; o++ {
		for j, w := range d.W[o*d.In : (o+1)*d.In] {
			l.wt[j*d.Out+o] = w
		}
	}
	return l
}

// simdRows is the number of output rows one SIMD block covers.
const simdRows = 16

// simdBlocks, when non-nil, runs a layer's first `blocks` whole blocks of
// simdRows output rows on both inputs. kernel_amd64.go installs the AVX2
// body at start-up on CPUs that report AVX2 with OS-enabled YMM state;
// elsewhere it stays nil and the Go body runs every row.
var simdBlocks func(dstA, dstB, xA, xB, wt, b *float64, in, out, blocks int)

// ForceGoKernel makes every Engine run the pure-Go body on every row until
// the returned function restores the detected body. It is a test hook, so
// that the packages above nn can pin scores under both bodies; it must not
// be called while inference runs.
func ForceGoKernel() (restore func()) {
	saved := simdBlocks
	simdBlocks = nil
	return func() { simdBlocks = saved }
}

// apply2 computes the layer on two independent inputs: dstA = W·xA + b and
// dstB = W·xB + b. Every accumulator follows Apply's order exactly — start
// at B[o], then add the rounded product W[o][j]·x[j] for j = 0, 1, 2, … —
// so both outputs are bit-identical to Apply, whichever body runs.
func (l *engineLayer) apply2(dstA, dstB, xA, xB []float64) {
	// The bounds the SIMD body relies on, checked once.
	_, _ = xA[l.in-1], xB[l.in-1]
	_, _ = dstA[l.out-1], dstB[l.out-1]
	o := 0
	if blocks := l.out / simdRows; blocks > 0 && simdBlocks != nil {
		simdBlocks(&dstA[0], &dstB[0], &xA[0], &xB[0], &l.wt[0], &l.b[0], l.in, l.out, blocks)
		o = blocks * simdRows
	}
	l.apply2Go(dstA, dstB, xA, xB, o)
}

// apply2Go is the pure-Go body: rows [from, out) of apply2, four rows ×
// both inputs per pass so that eight accumulators stay in registers and
// share each weight load, two input columns per loop iteration. The
// explicit float64 conversion rounds each product before it is added,
// which keeps the compiler from fusing the two into one multiply-add on
// architectures that have one.
func (l *engineLayer) apply2Go(dstA, dstB, xA, xB []float64, from int) {
	n, out, wt := l.in, l.out, l.wt
	xA, xB = xA[:n], xB[:n]
	o := from
	for ; o+3 < out; o += 4 {
		a0, a1, a2, a3 := l.b[o], l.b[o+1], l.b[o+2], l.b[o+3]
		b0, b1, b2, b3 := a0, a1, a2, a3
		k, j := o, 0
		for ; j+1 < n; j += 2 {
			w := wt[k : k+4 : k+4]
			v := wt[k+out : k+out+4 : k+out+4]
			xa, xb := xA[j], xB[j]
			ya, yb := xA[j+1], xB[j+1]
			a0 += float64(w[0] * xa)
			a1 += float64(w[1] * xa)
			a2 += float64(w[2] * xa)
			a3 += float64(w[3] * xa)
			b0 += float64(w[0] * xb)
			b1 += float64(w[1] * xb)
			b2 += float64(w[2] * xb)
			b3 += float64(w[3] * xb)
			a0 += float64(v[0] * ya)
			a1 += float64(v[1] * ya)
			a2 += float64(v[2] * ya)
			a3 += float64(v[3] * ya)
			b0 += float64(v[0] * yb)
			b1 += float64(v[1] * yb)
			b2 += float64(v[2] * yb)
			b3 += float64(v[3] * yb)
			k += 2 * out
		}
		if j < n {
			w := wt[k : k+4 : k+4]
			xa, xb := xA[j], xB[j]
			a0 += float64(w[0] * xa)
			a1 += float64(w[1] * xa)
			a2 += float64(w[2] * xa)
			a3 += float64(w[3] * xa)
			b0 += float64(w[0] * xb)
			b1 += float64(w[1] * xb)
			b2 += float64(w[2] * xb)
			b3 += float64(w[3] * xb)
		}
		dstA[o], dstA[o+1], dstA[o+2], dstA[o+3] = a0, a1, a2, a3
		dstB[o], dstB[o+1], dstB[o+2], dstB[o+3] = b0, b1, b2, b3
	}
	for ; o < out; o++ {
		sa, sb := l.b[o], l.b[o]
		k := o
		for j, xa := range xA {
			w := wt[k]
			sa += float64(w * xa)
			sb += float64(w * xB[j])
			k += out
		}
		dstA[o], dstB[o] = sa, sb
	}
}
