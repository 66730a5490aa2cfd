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
// and every later layer keeps Apply's order: s = B[o], then s += W[o][j]·x[j]
// for j = 0, 1, 2, …, each product rounded before it is added. There are
// two implementations of that order:
//
//   - HalfApply + InferLogitSplit: the plain reference implementation,
//     allocating as it goes, on the row-major weights. This is what
//     Model.Similarity uses.
//   - HalfApplyInto + Engine + Scratch: the engine implementation —
//     allocation-free with caller-owned buffers, both symmetrized pair
//     directions in one pass. The Engine holds a column-major copy of the
//     hidden layers' weights (wt[j*Out+o]), built once per model, so that
//     consecutive output rows' weights for one input are adjacent: each
//     SIMD lane is one output row's accumulator, and a lane runs exactly
//     the reference's operation sequence for its row. Its kernel has two
//     bodies over that layout. On amd64 CPUs with AVX2 and OS-enabled YMM
//     state, an assembly body runs blocks of 16 rows × both directions in
//     eight YMM accumulators; a pure-Go body runs the remaining rows (the
//     16→8 and 8→1 layers), other architectures and CPUs without AVX2.
//     Neither uses a fused multiply-add, which rounds once where the
//     reference rounds twice; the Go code writes float64(w*x) so that no
//     compiler fuses it either.
//
// Every inference ReLU — InferLogit, InferLogitSplit and the Engine — is
// max(v, 0), which has no data-dependent branch. It differs from
// `if v < 0 { v = 0 }` only in the sign of an exact zero (max(-0, 0) is
// +0), and a zero's sign cannot change a non-zero sum downstream, nor the
// score: Sigmoid(+0) == Sigmoid(-0). So the two implementations produce
// bit-identical logits, and the batched scan path is byte-for-byte the
// scalar path, only faster.
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
			s += float64(row[j] * xj)
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
			s0 += float64(r0[j] * xj)
			s1 += float64(r1[j] * xj)
			s2 += float64(r2[j] * xj)
			s3 += float64(r3[j] * xj)
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
			s += float64(row[j] * xj)
		}
		dst[o] = s
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
		h[o] = max(first[o]+second[o], 0)
	}
	for li := 1; li < len(n.Layers); li++ {
		h = n.Layers[li].Apply(h)
		if li == len(n.Layers)-1 {
			break
		}
		for i, v := range h {
			h[i] = max(v, 0)
		}
	}
	return h[0]
}

// InferLogitSplitScratch2 runs BOTH symmetrized directions of a pair in one
// allocation-free pass over the Engine's layers: A from (firstA, secondA),
// B from (firstB, secondB), with the halves as for InferLogitSplit. Each
// layer's weights are loaded once for both directions. Each direction's
// result is bit-identical to InferLogitSplit on its own halves; this is
// the scorer's hot path. s must come from NewScratch on the network the
// Engine was built from.
func (e *Engine) InferLogitSplitScratch2(s *Scratch, firstA, secondA, firstB, secondB []float64) (float64, float64) {
	ha, hb := s.bufs[0], s.bufs2[0]
	for o := range ha {
		ha[o] = max(firstA[o]+secondA[o], 0)
		hb[o] = max(firstB[o]+secondB[o], 0)
	}
	for li := range e.layers {
		outA, outB := s.bufs[li+1], s.bufs2[li+1]
		e.layers[li].apply2(outA, outB, ha, hb)
		if li < len(e.layers)-1 {
			for i := range outA {
				outA[i] = max(outA[i], 0)
				outB[i] = max(outB[i], 0)
			}
		}
		ha, hb = outA, outB
	}
	return ha[0], hb[0]
}
