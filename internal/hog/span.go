package hog

import "sync/atomic"

// spanKernel selects the 8-window vector kernel in ScoreSpan. It starts on
// when the CPU and OS support it (haveSpanKernel) and is only ever switched
// by tests pinning both paths; the scores are bit-identical either way.
var spanKernel atomic.Bool

func init() { spanKernel.Store(haveSpanKernel) }

// SpanKernel reports whether ScoreSpan runs the 8-window vector kernel.
func SpanKernel() bool { return spanKernel.Load() }

// SetSpanKernel turns the vector kernel on or off and returns the previous
// setting. It stays off on a CPU without the kernel. It exists so tests
// outside this package can pin the scalar path bit for bit; it changes
// speed, never a score.
func SetSpanKernel(on bool) (prev bool) {
	return spanKernel.Swap(on && haveSpanKernel)
}

// ScoreSpan scores the len(dst) windows anchored at blocks
// (bx0, by) .. (bx0+len(dst)-1, by), each spanning wBlocksX x wBlocksY
// blocks, writing window i's score to dst[i]. Every score is bit-identical
// to ScoreWindow's for the same anchor. It reports false and writes nothing
// if any window overhangs the map or w is not one window's descriptor long;
// an empty dst is checked like a one-window span.
//
// This is the software form of the paper's classifier bank: eight MACBARs
// share one stream of weights against eight neighbouring block columns of
// NHOGMem. Where the CPU has AVX2, each group of eight adjacent windows is
// scored by one kernel pass per block row: one weight load feeds eight
// multiply-adds, one per window. Each window's accumulator holds exactly
// dotRow's four partial sums s0..s3 in its four lanes, multiplies and adds
// round separately (no FMA), the rowLen%4 tail is added into s0, the lanes
// reduce as ((s0+s1)+s2)+s3 and block rows sum in raster order — the same
// float operations in the same order as ScoreWindow. Windows after the last
// group of eight, and every window without the kernel, use ScoreWindow.
func (fm *FeatureMap) ScoreSpan(w []float64, bx0, by, wBlocksX, wBlocksY int, dst []float64) bool {
	last := bx0 + max(len(dst), 1) - 1
	if bx0 < 0 || by < 0 || wBlocksX < 1 || wBlocksY < 1 ||
		last+wBlocksX > fm.BlocksX || by+wBlocksY > fm.BlocksY {
		return false
	}
	if len(w) != wBlocksY*wBlocksX*fm.BlockLen {
		return false
	}
	i := 0
	if spanKernel.Load() {
		for ; i+8 <= len(dst); i += 8 {
			fm.scoreSpan8(w, bx0+i, by, wBlocksX, wBlocksY, (*[8]float64)(dst[i:i+8]))
		}
	}
	for ; i < len(dst); i++ {
		dst[i], _ = fm.ScoreWindow(w, bx0+i, by, wBlocksX, wBlocksY)
	}
	return true
}

// scoreSpan8 scores the eight windows anchored at (bx..bx+7, by), which the
// caller has checked fit the map. dotRows8 yields the four dotRow lanes of
// every window for the first rowLen&^3 elements of a block row; the tail
// and the reductions below repeat dotRow and ScoreWindow's arithmetic
// verbatim. (The amd64 compiler never fuses a*b+c on its own, so neither
// side rounds differently from the kernel's VMULPD+VADDPD.)
func (fm *FeatureMap) scoreSpan8(w []float64, bx, by, wBlocksX, wBlocksY int, dst *[8]float64) {
	stride := fm.BlockLen
	rowLen := wBlocksX * stride
	n4 := rowLen &^ 3
	var sums [8]float64
	var lanes [32]float64
	for y := 0; y < wBlocksY; y++ {
		wr := w[y*rowLen : (y+1)*rowLen]
		off := ((by+y)*fm.BlocksX + bx) * stride
		f := fm.Feat[off : off+7*stride+rowLen]
		if n4 > 0 {
			dotRows8(&wr[0], &f[0], n4, stride, &lanes)
		}
		for k := range sums {
			s0 := lanes[4*k]
			fk := f[k*stride : k*stride+rowLen]
			for i := n4; i < rowLen; i++ {
				s0 += wr[i] * fk[i]
			}
			sums[k] += ((s0 + lanes[4*k+1]) + lanes[4*k+2]) + lanes[4*k+3]
		}
	}
	*dst = sums
}
