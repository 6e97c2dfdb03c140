//go:build !amd64

package hog

// haveSpanKernel is false off amd64: ScoreAnchors scores every window with
// ScoreWindow.
const haveSpanKernel = false

func dotRows8(w, f *float64, n int, offs *[8]int, lanes *[32]float64) {
	panic("hog: dotRows8 without the vector kernel")
}
