#include "textflag.h"

// func binRun(above, below, here *float64, n int, thr *float64, bins int, cosE, sinE *float64, kc *[14][4]float64, out *voteChunk)
//
// Pass 1 of the interior-row vote, four pixels per ymm register: for pixel
// i in [0, n), n a positive multiple of 4 and at most chunkLen, with
// gx = here[i+2] - here[i] and gy = below[i] - above[i], it writes the bin
// pair and the two weights fusedCtx.vote would add: out.b0[i], out.b1[i],
// out.w0[i] = mag*(1-alpha) and out.w1[i] = mag*alpha. Every float
// operation is vote's, in vote's order, with products rounded before they
// are added (VMULPD then VADDPD/VSUBPD, no FMA); VDIVPD and VSQRTPD round
// correctly, like Go's / and math.Sqrt. A pixel with m2 == 0 gets weights
// +0 (its x = 0/0 is NaN, so the weights are masked to +0 whatever the
// clamp makes of a NaN alpha) and an in-range bin pair.
//
// thr holds, per threshold b, cos[b] in four lanes then sin[b] in four
// lanes; kc holds c1 .. c11, 1, 0.5 and Bins/pi, each in four lanes (all
// Go-evaluated float64s, see binTable.init).
//
// The work runs as two loops over the chunk, each of whose iterations is
// short enough that several overlap out of order: the first stores mag in
// w1, k in b0 and x = v/u in w0, the second turns them into the votes.
// Every instruction is VEX-encoded: a legacy-SSE one (say MOVQ to an xmm
// register) would pay an SSE/AVX state transition on every call. The
// store offsets 512, 1024 and 1536 are voteChunk's (TestVoteChunkLayout).
// X15 is left untouched.
TEXT ·binRun(SB), NOSPLIT, $0-80
	MOVQ above+0(FP), AX
	MOVQ below+8(FP), BX
	MOVQ here+16(FP), CX
	MOVQ n+24(FP), DX
	MOVQ thr+32(FP), SI
	MOVQ bins+40(FP), R10
	MOVQ cosE+48(FP), R8
	MOVQ sinE+56(FP), R9
	MOVQ kc+64(FP), R11
	MOVQ out+72(FP), R12
	SHLQ $3, DX

	// Y12 = 0, Y13 = sign bits, Y14 = Bins in every lane. The threshold
	// loop runs R14 from -64*Bins up to 0 against SI = the table's end.
	VXORPD       Y12, Y12, Y12
	VPCMPEQQ     Y13, Y13, Y13
	VPSLLQ       $63, Y13, Y13
	VPBROADCASTQ bins+40(FP), Y14
	SHLQ         $6, R10
	ADDQ         R10, SI
	NEGQ         R10

	XORQ R13, R13

grad:
	// gx = right - left, gy = below - above, mag = Sqrt(gx*gx + gy*gy).
	VMOVUPD (CX)(R13*1), Y0
	VMOVUPD 16(CX)(R13*1), Y1
	VSUBPD  Y0, Y1, Y0
	VMOVUPD (BX)(R13*1), Y1
	VSUBPD  (AX)(R13*1), Y1, Y1
	VMULPD  Y0, Y0, Y2
	VMULPD  Y1, Y1, Y3
	VADDPD  Y3, Y2, Y2
	VSQRTPD Y2, Y2
	VMOVUPD Y2, 1536(R12)(R13*1)

	// Half-plane fold: flip gx and gy by gy's sign bit.
	VANDPD Y13, Y1, Y4
	VXORPD Y4, Y0, Y0
	VXORPD Y4, Y1, Y1

	// neg = number of thresholds b whose cross product
	// gy*cos[b] - gx*sin[b] has its sign bit set; k = Bins - neg.
	VMOVDQU Y14, Y4
	MOVQ    R10, R14

thresholds:
	VMULPD (SI)(R14*1), Y1, Y5
	VMULPD 32(SI)(R14*1), Y0, Y6
	VSUBPD Y6, Y5, Y5
	VPSRLQ $63, Y5, Y5
	VPSUBQ Y5, Y4, Y4
	ADDQ   $64, R14
	JNZ    thresholds
	VMOVDQU Y4, (R12)(R13*1)

	// ce, se = cosE[k], sinE[k]; x = (gy*ce - gx*se) / (gx*ce + gy*se).
	VPCMPEQQ   Y5, Y5, Y5
	VXORPD     Y6, Y6, Y6
	VGATHERQPD Y5, (R8)(Y4*8), Y6
	VPCMPEQQ   Y5, Y5, Y5
	VXORPD     Y7, Y7, Y7
	VGATHERQPD Y5, (R9)(Y4*8), Y7
	VMULPD     Y6, Y1, Y8
	VMULPD     Y7, Y0, Y9
	VSUBPD     Y9, Y8, Y8
	VMULPD     Y6, Y0, Y9
	VMULPD     Y7, Y1, Y10
	VADDPD     Y10, Y9, Y9
	VDIVPD     Y9, Y8, Y8
	VMOVUPD    Y8, 1024(R12)(R13*1)

	ADDQ $32, R13
	CMPQ R13, DX
	JB   grad

	XORQ R13, R13

vote:
	// Estrin atanSmall of x: Y0 = z, Y1 = z2, Y2 = z4.
	VMOVUPD 1024(R12)(R13*1), Y8
	VMULPD  Y8, Y8, Y0
	VMULPD  Y0, Y0, Y1
	VMULPD  Y1, Y1, Y2
	VMULPD  0(R11), Y0, Y3        // c1*z
	VADDPD  352(R11), Y3, Y3      // p01 = 1 + c1*z
	VMULPD  64(R11), Y0, Y4       // c3*z
	VADDPD  32(R11), Y4, Y4       // p23 = c2 + c3*z
	VMULPD  Y1, Y4, Y4
	VADDPD  Y4, Y3, Y3            // q0 = p01 + p23*z2
	VMULPD  128(R11), Y0, Y4      // c5*z
	VADDPD  96(R11), Y4, Y4       // p45 = c4 + c5*z
	VMULPD  192(R11), Y0, Y5      // c7*z
	VADDPD  160(R11), Y5, Y5      // p67 = c6 + c7*z
	VMULPD  Y1, Y5, Y5
	VADDPD  Y5, Y4, Y4            // q1 = p45 + p67*z2
	VMULPD  256(R11), Y0, Y5      // c9*z
	VADDPD  224(R11), Y5, Y5      // p89 = c8 + c9*z
	VMULPD  320(R11), Y0, Y6      // c11*z
	VADDPD  288(R11), Y6, Y6      // pAB = c10 + c11*z
	VMULPD  Y1, Y6, Y6
	VADDPD  Y6, Y5, Y5            // q2 = p89 + pAB*z2
	VMULPD  Y2, Y5, Y5
	VADDPD  Y5, Y4, Y4            // q1 + q2*z4
	VMULPD  Y2, Y4, Y4
	VADDPD  Y4, Y3, Y3            // q0 + (q1 + q2*z4)*z4
	VMULPD  Y3, Y8, Y8            // a

	// alpha = 0.5 + a*(Bins/pi), clamped to [0, 1].
	VMULPD  416(R11), Y8, Y8
	VADDPD  384(R11), Y8, Y8
	VMOVUPD 352(R11), Y0
	VMINPD  Y0, Y8, Y8
	VMAXPD  Y12, Y8, Y8

	// w0 = mag*(1-alpha), w1 = mag*alpha, +0 where mag == 0.
	VMOVUPD 1536(R12)(R13*1), Y3
	VCMPPD  $4, Y12, Y3, Y2       // mag != 0
	VSUBPD  Y8, Y0, Y0
	VMULPD  Y0, Y3, Y0
	VMULPD  Y8, Y3, Y8
	VANDPD  Y2, Y0, Y0
	VANDPD  Y2, Y8, Y8
	VMOVUPD Y0, 1024(R12)(R13*1)
	VMOVUPD Y8, 1536(R12)(R13*1)

	// b1 = k, or 0 where k == Bins; b0 = k-1, or Bins-1 where k == 0.
	VMOVDQU  (R12)(R13*1), Y4
	VPCMPEQQ Y14, Y4, Y1
	VPANDN   Y4, Y1, Y1
	VPCMPEQQ Y5, Y5, Y5
	VPADDQ   Y5, Y4, Y4
	VPCMPEQQ Y5, Y4, Y6
	VPAND    Y14, Y6, Y6
	VPADDQ   Y6, Y4, Y4
	VMOVDQU  Y4, (R12)(R13*1)
	VMOVDQU  Y1, 512(R12)(R13*1)

	ADDQ $32, R13
	CMPQ R13, DX
	JB   vote

	VZEROUPPER
	RET
