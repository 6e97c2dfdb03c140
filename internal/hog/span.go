package hog

import "sync/atomic"

// spanKernel selects the 8-window vector kernel in ScoreAnchors. It starts
// on when the CPU and OS support it (haveSpanKernel) and is only ever
// switched by tests pinning both paths; the scores are bit-identical either
// way.
var spanKernel atomic.Bool

func init() { spanKernel.Store(haveSpanKernel) }

// SpanKernel reports whether ScoreAnchors runs the 8-window vector kernel.
func SpanKernel() bool { return spanKernel.Load() }

// SetSpanKernel turns the vector kernel on or off and returns the previous
// setting. It stays off on a CPU without the kernel. It exists so tests
// outside this package can pin the scalar path bit for bit; it changes
// speed, never a score.
func SetSpanKernel(on bool) (prev bool) {
	return spanKernel.Swap(on && haveSpanKernel)
}

// Anchor is the top-left block (X, Y) of a detection window in a
// FeatureMap.
type Anchor struct{ X, Y int }

// ScoreAnchors scores the windows anchored at anchors, each spanning
// wBlocksX x wBlocksY blocks, writing anchors[i]'s score to dst[i]. Every
// score is bit-identical to ScoreWindow's for the same anchor. It reports
// false and writes nothing if any window overhangs the map, w is not one
// window's descriptor long, or dst and anchors differ in length.
//
// This is the software form of the paper's classifier bank: eight MACBARs
// share one stream of weights against eight block columns of NHOGMem.
// Where the CPU has AVX2, the anchors are scored in groups of eight, any
// eight (adjacent, on different rows, or repeated), by one kernel pass per
// block row: one weight load feeds eight multiply-adds, one per window. A
// short last group repeats its last anchor and drops the copies' scores,
// so no window takes the scalar path. Each window's accumulator holds
// exactly dotRow's four partial sums s0..s3 in its four lanes, multiplies
// and adds round separately (no FMA), the rowLen%4 tail is added into s0,
// the lanes reduce as ((s0+s1)+s2)+s3 and block rows sum in raster order —
// the same float operations in the same order as ScoreWindow. Without the
// kernel every window uses ScoreWindow.
func (fm *FeatureMap) ScoreAnchors(w []float64, wBlocksX, wBlocksY int, anchors []Anchor, dst []float64) bool {
	if wBlocksX < 1 || wBlocksY < 1 || len(dst) != len(anchors) ||
		len(w) != wBlocksY*wBlocksX*fm.BlockLen {
		return false
	}
	for _, a := range anchors {
		if a.X < 0 || a.Y < 0 || a.X+wBlocksX > fm.BlocksX || a.Y+wBlocksY > fm.BlocksY {
			return false
		}
	}
	if !spanKernel.Load() {
		for i, a := range anchors {
			dst[i], _ = fm.ScoreWindow(w, a.X, a.Y, wBlocksX, wBlocksY)
		}
		return true
	}
	var offs [8]int
	var sums [8]float64
	for i := 0; i < len(anchors); i += 8 {
		for k := range offs {
			a := anchors[min(i+k, len(anchors)-1)]
			offs[k] = (a.Y*fm.BlocksX + a.X) * fm.BlockLen
		}
		fm.scoreGroup8(w, wBlocksX, wBlocksY, &offs, &sums)
		copy(dst[i:], sums[:])
	}
	return true
}

// scoreGroup8 scores the eight windows whose first block rows start at
// Feat[offs[k]], which the caller has checked fit the map. Block row y of
// every window starts y map rows further on, so one base pointer advances
// per row while the offsets stay put. dotRows8 yields the four dotRow
// lanes of every window for the first rowLen&^3 elements of a block row;
// the tail and the reductions below repeat dotRow and ScoreWindow's
// arithmetic verbatim. (The amd64 compiler never fuses a*b+c on its own,
// so neither side rounds differently from the kernel's VMULPD+VADDPD.)
func (fm *FeatureMap) scoreGroup8(w []float64, wBlocksX, wBlocksY int, offs *[8]int, dst *[8]float64) {
	rowLen := wBlocksX * fm.BlockLen
	mapRow := fm.BlocksX * fm.BlockLen
	n4 := rowLen &^ 3
	var sums [8]float64
	var lanes [32]float64
	for y := 0; y < wBlocksY; y++ {
		wr := w[y*rowLen : (y+1)*rowLen]
		base := y * mapRow
		if n4 > 0 {
			dotRows8(&wr[0], &fm.Feat[base], n4, offs, &lanes)
		}
		for k, off := range offs {
			s0 := lanes[4*k]
			if n4 < rowLen {
				fk := fm.Feat[base+off : base+off+rowLen]
				for i := n4; i < rowLen; i++ {
					s0 += wr[i] * fk[i]
				}
			}
			sums[k] += ((s0 + lanes[4*k+1]) + lanes[4*k+2]) + lanes[4*k+3]
		}
	}
	*dst = sums
}
