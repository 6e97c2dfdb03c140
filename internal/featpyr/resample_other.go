//go:build !amd64

package featpyr

// haveRowKernel is false off amd64: every resample runs the scalar loop.
const haveRowKernel = false

func bilinearRow(out, r0, r1 *float64, taps *xTap, blocks, n int, ay, omy, gain float64, scale bool) {
	panic("featpyr: bilinearRow without the vector kernel")
}
