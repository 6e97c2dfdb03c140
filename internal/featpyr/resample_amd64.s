#include "textflag.h"

// func bilinearRow(out, r0, r1 *float64, taps *xTap, blocks, n int, ay, omy, gain float64, scale bool)
//
// Per block, Y0..Y3 hold the broadcast weights w00 = (1-ax)*(1-ay),
// w10 = ax*(1-ay), w01 = (1-ax)*ay and w11 = ax*ay, each the one product
// resampleRows' scalar loop forms. Each step then computes four features as
// ((w00*c00 + w10*c10) + w01*c01) + w11*c11, rounding every product
// (VMULPD) before its add (VADDPD) in that order, then the gain product:
// the scalar loop's float operations lane by lane. No FMA; VEX encodings
// only. X15 is left untouched.
TEXT ·bilinearRow(SB), NOSPLIT, $0-73
	MOVQ    out+0(FP), DI
	MOVQ    r0+8(FP), SI
	MOVQ    r1+16(FP), DX
	MOVQ    taps+24(FP), BX
	MOVQ    blocks+32(FP), CX
	MOVQ    n+40(FP), R10
	MOVBQZX scale+72(FP), R8
	SHLQ    $3, R10 // block length in bytes
	MOVQ    R10, R9
	ANDQ    $-32, R9 // bytes covered by four-feature steps
	VBROADCASTSD ay+48(FP), Y10
	VBROADCASTSD omy+56(FP), Y11
	VBROADCASTSD gain+64(FP), Y12
	TESTQ   CX, CX
	JZ      done

block:
	// xTap: off0, off1 (elements), ax, 1-ax.
	MOVQ 0(BX), AX
	LEAQ (SI)(AX*8), R11 // c00
	LEAQ (DX)(AX*8), R13 // c01
	MOVQ 8(BX), AX
	LEAQ (SI)(AX*8), R12 // c10
	LEAQ (DX)(AX*8), R14 // c11
	VBROADCASTSD 16(BX), Y4
	VBROADCASTSD 24(BX), Y5
	VMULPD Y11, Y5, Y0
	VMULPD Y11, Y4, Y1
	VMULPD Y10, Y5, Y2
	VMULPD Y10, Y4, Y3
	XORQ AX, AX
	CMPQ AX, R9
	JAE  tail

vec:
	VMULPD  (R11)(AX*1), Y0, Y6
	VMULPD  (R12)(AX*1), Y1, Y7
	VADDPD  Y7, Y6, Y6
	VMULPD  (R13)(AX*1), Y2, Y7
	VADDPD  Y7, Y6, Y6
	VMULPD  (R14)(AX*1), Y3, Y7
	VADDPD  Y7, Y6, Y6
	TESTQ   R8, R8
	JZ      vstore
	VMULPD  Y12, Y6, Y6

vstore:
	VMOVUPD Y6, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, R9
	JB      vec

tail:
	CMPQ   AX, R10
	JAE    next
	VMULSD (R11)(AX*1), X0, X6
	VMULSD (R12)(AX*1), X1, X7
	VADDSD X7, X6, X6
	VMULSD (R13)(AX*1), X2, X7
	VADDSD X7, X6, X6
	VMULSD (R14)(AX*1), X3, X7
	VADDSD X7, X6, X6
	TESTQ  R8, R8
	JZ     sstore
	VMULSD X12, X6, X6

sstore:
	VMOVSD X6, (DI)(AX*1)
	ADDQ   $8, AX
	JMP    tail

next:
	ADDQ R10, DI
	ADDQ $32, BX
	DECQ CX
	JNZ  block

done:
	VZEROUPPER
	RET
