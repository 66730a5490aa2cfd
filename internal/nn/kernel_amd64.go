package nn

func init() {
	if cpuHasAVX2() {
		simdBlocks = apply2AVX2
	}
}

// cpuHasAVX2 reports whether the CPU supports AVX2 and the OS saves the
// YMM registers across context switches (CPUID and XGETBV).
func cpuHasAVX2() bool

// apply2AVX2 is the AVX2 body of engineLayer.apply2 for the first
// blocks×16 output rows. Each YMM accumulator holds four rows of one input;
// every step is a VMULPD then a VADDPD, never a fused multiply-add, so each
// lane rounds exactly as Apply does.
//
//go:noescape
func apply2AVX2(dstA, dstB, xA, xB, wt, b *float64, in, out, blocks int)
