#include "textflag.h"

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	// Highest standard CPUID leaf must reach 7.
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  done
	// Leaf 1, ECX: OSXSAVE (bit 27) and AVX (bit 28).
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  done
	// XCR0: the OS saves XMM (bit 1) and YMM (bit 2) state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  done
	// Leaf 7 subleaf 0, EBX: AVX2 (bit 5).
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX
	JZ   done
	MOVB $1, ret+0(FP)
done:
	RET

// func apply2AVX2(dstA, dstB, xA, xB, wt, b *float64, in, out, blocks int)
//
// For each block of 16 output rows: Y0–Y3 accumulate rows o..o+15 on xA
// and Y4–Y7 the same rows on xB, both starting from the bias. Per input
// column j the 16 weights wt[j*out+o : j*out+o+16] are loaded once into
// Y10–Y13 and multiplied by the broadcast xA[j] (Y8) and xB[j] (Y9); each
// product is rounded (VMULPD) before it is added (VADDPD).
TEXT ·apply2AVX2(SB), NOSPLIT, $0-72
	MOVQ dstA+0(FP), DI
	MOVQ dstB+8(FP), SI
	MOVQ xA+16(FP), R8
	MOVQ xB+24(FP), R9
	MOVQ wt+32(FP), R10
	MOVQ b+40(FP), R11
	MOVQ in+48(FP), R12
	MOVQ out+56(FP), R13
	MOVQ blocks+64(FP), R14
	SHLQ $3, R13 // bytes between one column's weights and the next's

block:
	VMOVUPD 0(R11), Y0
	VMOVUPD 32(R11), Y1
	VMOVUPD 64(R11), Y2
	VMOVUPD 96(R11), Y3
	VMOVAPD Y0, Y4
	VMOVAPD Y1, Y5
	VMOVAPD Y2, Y6
	VMOVAPD Y3, Y7
	MOVQ    R10, AX
	XORQ    CX, CX

column:
	VBROADCASTSD (R8)(CX*8), Y8
	VBROADCASTSD (R9)(CX*8), Y9
	VMOVUPD      0(AX), Y10
	VMOVUPD      32(AX), Y11
	VMOVUPD      64(AX), Y12
	VMOVUPD      96(AX), Y13
	VMULPD       Y8, Y10, Y14
	VMULPD       Y9, Y10, Y15
	VADDPD       Y14, Y0, Y0
	VADDPD       Y15, Y4, Y4
	VMULPD       Y8, Y11, Y14
	VMULPD       Y9, Y11, Y15
	VADDPD       Y14, Y1, Y1
	VADDPD       Y15, Y5, Y5
	VMULPD       Y8, Y12, Y14
	VMULPD       Y9, Y12, Y15
	VADDPD       Y14, Y2, Y2
	VADDPD       Y15, Y6, Y6
	VMULPD       Y8, Y13, Y14
	VMULPD       Y9, Y13, Y15
	VADDPD       Y14, Y3, Y3
	VADDPD       Y15, Y7, Y7
	ADDQ         R13, AX
	INCQ         CX
	CMPQ         CX, R12
	JLT          column

	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 0(SI)
	VMOVUPD Y5, 32(SI)
	VMOVUPD Y6, 64(SI)
	VMOVUPD Y7, 96(SI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	ADDQ    $128, R10
	ADDQ    $128, R11
	DECQ    R14
	JNZ     block

	VZEROUPPER
	RET
