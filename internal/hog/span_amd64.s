#include "textflag.h"

// func dotRows8(w, f *float64, n int, offs *[8]int, lanes *[32]float64)
//
// Y0..Y7 accumulate windows 0..7; lane j of Yk is dotRow's s_j for window
// k. Each step loads four weights once (Y8) and multiplies them against the
// same four positions of all eight windows, rounding the product (VMULPD)
// before adding it (VADDPD), exactly as dotRow's s_j += a[i+j]*b[i+j].
// X15 is left untouched.
TEXT ·dotRows8(SB), NOSPLIT, $0-40
	MOVQ w+0(FP), DI
	MOVQ f+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ offs+24(FP), BX
	SHLQ $3, CX

	// Row starts of windows 1..7, then window 0's in SI.
	MOVQ 8(BX), DX
	LEAQ (SI)(DX*8), DX
	MOVQ 16(BX), R8
	LEAQ (SI)(R8*8), R8
	MOVQ 24(BX), R9
	LEAQ (SI)(R9*8), R9
	MOVQ 32(BX), R10
	LEAQ (SI)(R10*8), R10
	MOVQ 40(BX), R11
	LEAQ (SI)(R11*8), R11
	MOVQ 48(BX), R12
	LEAQ (SI)(R12*8), R12
	MOVQ 56(BX), R13
	LEAQ (SI)(R13*8), R13
	MOVQ 0(BX), BX
	LEAQ (SI)(BX*8), SI

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	XORQ  AX, AX
	TESTQ CX, CX
	JZ    done

loop:
	VMOVUPD (DI)(AX*1), Y8
	VMULPD  (SI)(AX*1), Y8, Y9
	VADDPD  Y9, Y0, Y0
	VMULPD  (DX)(AX*1), Y8, Y10
	VADDPD  Y10, Y1, Y1
	VMULPD  (R8)(AX*1), Y8, Y11
	VADDPD  Y11, Y2, Y2
	VMULPD  (R9)(AX*1), Y8, Y12
	VADDPD  Y12, Y3, Y3
	VMULPD  (R10)(AX*1), Y8, Y13
	VADDPD  Y13, Y4, Y4
	VMULPD  (R11)(AX*1), Y8, Y14
	VADDPD  Y14, Y5, Y5
	VMULPD  (R12)(AX*1), Y8, Y9
	VADDPD  Y9, Y6, Y6
	VMULPD  (R13)(AX*1), Y8, Y10
	VADDPD  Y10, Y7, Y7
	ADDQ    $32, AX
	CMPQ    AX, CX
	JB      loop

done:
	MOVQ    lanes+32(FP), AX
	VMOVUPD Y0, 0(AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)
	VMOVUPD Y4, 128(AX)
	VMOVUPD Y5, 160(AX)
	VMOVUPD Y6, 192(AX)
	VMOVUPD Y7, 224(AX)
	VZEROUPPER
	RET
