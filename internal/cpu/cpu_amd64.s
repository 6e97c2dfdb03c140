#include "textflag.h"

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   no

	// Leaf 1: ECX bit 27 (OSXSAVE) and bit 28 (AVX).
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no

	// XCR0 bits 1 and 2: the OS saves XMM and YMM state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no

	// Leaf 7, subleaf 0: EBX bit 5 (AVX2).
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
