package hog

import "repro/internal/cpu"

// haveSpanKernel reports whether the CPU has AVX2 and the OS saves the YMM
// registers, so dotRows8 may run.
var haveSpanKernel = cpu.AVX2

// dotRows8 computes, for the eight windows whose block rows start at
// f+offs[0], ..., f+offs[7] (offsets in elements), the four-lane partial
// dot products of n weights at w against each row: lanes[4*k+j] is
// dotRow's s_j for window k over the first n elements. n must be a
// positive multiple of 4. Implemented in span_amd64.s.
//
//go:noescape
func dotRows8(w, f *float64, n int, offs *[8]int, lanes *[32]float64)
