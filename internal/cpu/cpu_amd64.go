package cpu

// AVX2 reports whether the CPU has AVX and AVX2 and the OS saves the YMM
// registers, so the AVX2 kernels may run.
var AVX2 = hasAVX2()

// hasAVX2 checks CPUID for AVX and AVX2 and XGETBV for OS-enabled XMM+YMM
// state. Implemented in cpu_amd64.s.
func hasAVX2() bool
