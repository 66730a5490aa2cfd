// Split-input inference: the static stage's hot path.
//
// PATCHECKO's similarity model scores a PAIR input [a;b] — two halves that
// the scan engine recombines combinatorially (every CVE reference against
// every firmware function, in both symmetrized orders). For the first dense
// layer the algebra factors per half:
//
//	y1 = W·[a;b] + bias = (bias + W[:, :48]·a) + (W[:, 48:]·b)
//
// so each half's contribution can be computed once and reused across every
// pair it appears in. The functions here fix ONE canonical floating-point
// accumulation order for that factored form — each half is accumulated
// sequentially on its own (the first-position half starting from the bias,
// the second-position half from zero) and the two partial sums are added —
// and provide two implementations of it:
//
//   - HalfApply + InferLogitSplit: the plain reference implementation,
//     allocating as it goes. This is what Model.Similarity uses.
//   - HalfApplyInto + Scratch + InferLogitSplitScratch2: the engine
//     implementation — allocation-free with caller-owned buffers, both
//     symmetrized pair directions in one pass, inner loops unrolled across
//     output rows. Unrolling across rows does not touch any single
//     accumulator's operation sequence, so the two implementations produce
//     bit-identical results; the batched scan path is byte-for-byte the
//     scalar path, only faster.
//
// Note the split order is NOT bit-identical to InferLogit on the
// concatenated 96-dim input (the 49th addend lands on a different partial
// sum), which is why Model.Similarity and the Scorer both standardize on
// the split order instead.
package nn

// HalfApply computes one layer's partial response to the input columns
// [off, off+len(x)): out[o] = base + Σ_j W[o][off+j]·x[j], where base is
// B[o] when withBias is set and 0 otherwise. Accumulation is sequential in
// j per output row. This is the reference implementation; HalfApplyInto is
// the allocation-free equivalent.
func (d *Dense) HalfApply(x []float64, off int, withBias bool) []float64 {
	y := make([]float64, d.Out)
	for o := 0; o < d.Out; o++ {
		row := d.W[o*d.In+off : o*d.In+off+len(x)]
		s := 0.0
		if withBias {
			s = d.B[o]
		}
		for j, xj := range x {
			s += row[j] * xj
		}
		y[o] = s
	}
	return y
}

// HalfApplyInto is HalfApply into a caller-owned buffer of length d.Out.
// The inner loop runs four output rows per pass — four independent
// accumulators that share each load of x and overlap their add-latency
// chains, each still strictly sequential in j, so results are bit-identical
// to HalfApply.
func (d *Dense) HalfApplyInto(dst, x []float64, off int, withBias bool) {
	n := len(x)
	o := 0
	for ; o+3 < d.Out; o += 4 {
		r0 := d.W[o*d.In+off : o*d.In+off+n]
		r1 := d.W[(o+1)*d.In+off : (o+1)*d.In+off+n]
		r2 := d.W[(o+2)*d.In+off : (o+2)*d.In+off+n]
		r3 := d.W[(o+3)*d.In+off : (o+3)*d.In+off+n]
		var s0, s1, s2, s3 float64
		if withBias {
			s0, s1, s2, s3 = d.B[o], d.B[o+1], d.B[o+2], d.B[o+3]
		}
		for j, xj := range x {
			s0 += r0[j] * xj
			s1 += r1[j] * xj
			s2 += r2[j] * xj
			s3 += r3[j] * xj
		}
		dst[o], dst[o+1], dst[o+2], dst[o+3] = s0, s1, s2, s3
	}
	for ; o < d.Out; o++ {
		row := d.W[o*d.In+off : o*d.In+off+n]
		s := 0.0
		if withBias {
			s = d.B[o]
		}
		for j, xj := range x {
			s += row[j] * xj
		}
		dst[o] = s
	}
}

// ApplyInto2 computes the layer on two independent inputs in one
// interleaved pass, loading each weight row once for both. Each
// accumulator (two rows × two inputs) follows the exact sequential order
// of Apply on its own input, so dstA/dstB are bit-identical to two
// Apply calls. The symmetrized pair scorer uses this to push both pair
// orders through the network together.
func (d *Dense) ApplyInto2(dstA, dstB, xA, xB []float64) {
	n := len(xA)
	o := 0
	for ; o+1 < d.Out; o += 2 {
		r0 := d.W[o*d.In : o*d.In+n]
		r1 := d.W[(o+1)*d.In : (o+1)*d.In+n]
		a0, a1 := d.B[o], d.B[o+1]
		b0, b1 := a0, a1
		for j, xj := range xA {
			w0, w1 := r0[j], r1[j]
			yj := xB[j]
			a0 += w0 * xj
			a1 += w1 * xj
			b0 += w0 * yj
			b1 += w1 * yj
		}
		dstA[o], dstA[o+1] = a0, a1
		dstB[o], dstB[o+1] = b0, b1
	}
	if o < d.Out {
		row := d.W[o*d.In : o*d.In+n]
		sa, sb := d.B[o], d.B[o]
		for j, xj := range xA {
			w := row[j]
			sa += w * xj
			sb += w * xB[j]
		}
		dstA[o], dstB[o] = sa, sb
	}
}

// Scratch holds two forward passes worth of activation buffers (one per
// symmetrized pair direction), sized for a specific network. A Scratch is
// not safe for concurrent use; give each scoring goroutine its own (the
// scan engine keeps one per worker).
type Scratch struct {
	bufs  [][]float64
	bufs2 [][]float64
}

// NewScratch allocates activation buffers for every layer of the network.
func (n *Network) NewScratch() *Scratch {
	s := &Scratch{
		bufs:  make([][]float64, len(n.Layers)),
		bufs2: make([][]float64, len(n.Layers)),
	}
	for i, l := range n.Layers {
		s.bufs[i] = make([]float64, l.Out)
		s.bufs2[i] = make([]float64, l.Out)
	}
	return s
}

// InferLogitSplit runs a forward pass from precomputed first-layer halves:
// first must hold the first pair position's contribution WITH the bias
// (HalfApply(a, 0, true)), second the second position's without it
// (HalfApply(b, NumStatic-equivalent offset, false)). Reference
// implementation, allocating per layer; goroutine-safe like InferLogit.
func (n *Network) InferLogitSplit(first, second []float64) float64 {
	h := make([]float64, len(first))
	for o := range h {
		v := first[o] + second[o]
		if v < 0 {
			v = 0
		}
		h[o] = v
	}
	for li := 1; li < len(n.Layers); li++ {
		h = n.Layers[li].Apply(h)
		if li == len(n.Layers)-1 {
			break
		}
		for i := range h {
			if h[i] < 0 {
				h[i] = 0
			}
		}
	}
	return h[0]
}

// InferLogitSplitScratch2 runs BOTH symmetrized directions of a pair in
// one interleaved, allocation-free pass: every weight row is loaded once
// and applied to both directions' activations (ApplyInto2). Each
// direction's result is bit-identical to InferLogitSplit on its own
// halves; this is the scorer's hot path.
func (n *Network) InferLogitSplitScratch2(s *Scratch, firstA, secondA, firstB, secondB []float64) (float64, float64) {
	ha, hb := s.bufs[0], s.bufs2[0]
	for o := range ha {
		va := firstA[o] + secondA[o]
		if va < 0 {
			va = 0
		}
		ha[o] = va
		vb := firstB[o] + secondB[o]
		if vb < 0 {
			vb = 0
		}
		hb[o] = vb
	}
	for li := 1; li < len(n.Layers); li++ {
		outA, outB := s.bufs[li], s.bufs2[li]
		n.Layers[li].ApplyInto2(outA, outB, ha, hb)
		if li < len(n.Layers)-1 {
			for i := range outA {
				if outA[i] < 0 {
					outA[i] = 0
				}
				if outB[i] < 0 {
					outB[i] = 0
				}
			}
		}
		ha, hb = outA, outB
	}
	return ha[0], hb[0]
}
