package featpyr

import "repro/internal/cpu"

// haveRowKernel reports whether bilinearRow may run: it needs AVX2 and OS
// YMM support.
var haveRowKernel = cpu.AVX2

// bilinearRow writes one output block row of a bilinear resample: blocks
// blocks of n features at out, block b drawn from the source block rows r0
// (upper) and r1 (lower) through taps[b] with vertical weights ay and
// omy = 1-ay, and multiplied by gain if scale is set. Four features go per
// instruction; the tail of n%4 features runs the same operations one
// feature at a time. Implemented in resample_amd64.s.
//
//go:noescape
func bilinearRow(out, r0, r1 *float64, taps *xTap, blocks, n int, ay, omy, gain float64, scale bool)
