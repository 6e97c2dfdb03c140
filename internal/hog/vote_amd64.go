package hog

// haveCellKernel reports whether binRun may run: it needs the same AVX2
// and OS YMM support as the span kernel.
var haveCellKernel = haveSpanKernel

// binRun is pass 1 of the vector interior-row vote: for each of the n
// pixels at above[i], below[i] and here[i+1] (here points one pixel left of
// the run), it writes vote's bin pair and weights to out[i]. n must be a
// positive multiple of 4, at most chunkLen; thr and kc are binTable's
// lane-broadcast tables. Implemented in vote_amd64.s.
//
//go:noescape
func binRun(above, below, here *float64, n int, thr *float64, bins int, cosE, sinE *float64, kc *[14][4]float64, out *voteChunk)
