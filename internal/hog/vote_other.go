//go:build !amd64

package hog

// haveCellKernel is false off amd64: interior rows vote with the scalar
// fusedCtx.vote.
const haveCellKernel = false

func binRun(above, below, here *float64, n int, thr *float64, bins int, cosE, sinE *float64, kc *[14][4]float64, out *voteChunk) {
	panic("hog: binRun without the vector kernel")
}
