package hog

import "sync/atomic"

// cellKernel selects the vector pass 1 (binRun) for interior rows. It
// starts on when the CPU and OS support it (haveCellKernel) and is only
// ever switched by tests pinning both paths; the histograms are
// bit-identical either way.
var cellKernel atomic.Bool

func init() { cellKernel.Store(haveCellKernel) }

// CellKernel reports whether interior pixel rows are binned by the vector
// cell kernel.
func CellKernel() bool { return cellKernel.Load() }

// SetCellKernel turns the vector cell kernel on or off and returns the
// previous setting. It stays off on a CPU without the kernel. It exists so
// tests outside this package can pin the scalar path bit for bit; it
// changes speed, never a histogram.
func SetCellKernel(on bool) (prev bool) {
	return cellKernel.Swap(on && haveCellKernel)
}

// chunkLen is the number of pixels one binRun call bins: the voteChunk
// lives on the band worker's stack (2 KB), and the assembly's store
// offsets are fixed by it.
const chunkLen = 64

// voteChunk is pass 1's output for a run of up to chunkLen pixels: pixel
// i adds w0[i] to its cell's bin b0[i] and w1[i] to bin b1[i].
type voteChunk struct {
	b0, b1 [chunkLen]int64
	w0, w1 [chunkLen]float64
}

// voteRun votes the interior pixels [x0, x1) of a row whose luminance
// rows are here, above and below, into histRow, in two passes per chunk:
// binRun bins up to chunkLen pixels four per instruction into a
// voteChunk, then the scalar accumulate adds the chunk into the cells in
// pixel order. Pass 1 repeats vote's float operations and pass 2 vote's
// two additions, so each cell sum keeps the bits the scalar path gives
// it. The last x1-x0 mod 4 pixels go through vote itself. The caller
// guarantees 1 <= x0, x1 < len(here), Bins >= 6 (binTable.poly), and that
// every pixel's cell is in histRow.
func (fc *fusedCtx) voteRun(here, above, below, histRow []float64, x0, x1 int) {
	ch := new(voteChunk) // on the stack: binRun does not keep it
	t := fc.bt
	x := x0
	for x+4 <= x1 {
		n := min(x1-x, chunkLen) &^ 3
		a := above[x : x+n]
		b := below[x : x+n]
		h := here[x-1 : x+n+1]
		binRun(&a[0], &b[0], &h[0], n, &t.thr[0], t.bins, &t.cosE[0], &t.sinE[0], &t.kc, ch)
		fc.addChunk(ch, histRow, x, n)
		x += n
	}
	for ; x < x1; x++ {
		gx := here[x+1] - here[x-1]
		gy := below[x] - above[x]
		if m2 := gx*gx + gy*gy; m2 != 0 {
			c := x / fc.cell
			fc.vote(histRow[c*fc.bins:(c+1)*fc.bins], gx, gy, m2)
		}
	}
}

// addChunk is pass 2: it adds the n votes of ch, pixels x .. x+n-1, into
// their cells in pixel order, b0 before b1 as vote does. A zero-gradient
// pixel adds +0, which leaves every sum's bits as they are (no sum is -0).
func (fc *fusedCtx) addChunk(ch *voteChunk, histRow []float64, x, n int) {
	bins, cell := fc.bins, fc.cell
	for i := 0; i < n; {
		c := (x + i) / cell
		end := min(n, (c+1)*cell-x)
		h := histRow[c*bins : (c+1)*bins]
		for ; i < end; i++ {
			h[ch.b0[i]] += ch.w0[i]
			h[ch.b1[i]] += ch.w1[i]
		}
	}
}
