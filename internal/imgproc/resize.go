package imgproc

import (
	"fmt"
	"math"
)

// Interp selects the resampling kernel used by Resize.
type Interp int

const (
	// Nearest uses nearest-neighbour sampling (the cheapest, blockiest).
	Nearest Interp = iota
	// Bilinear uses 2x2 linear interpolation, the kernel the paper's
	// scaling hardware approximates with shift-and-add networks.
	Bilinear
	// Bicubic uses a 4x4 Catmull-Rom kernel (a = -0.5).
	Bicubic
)

// String implements fmt.Stringer.
func (ip Interp) String() string {
	switch ip {
	case Nearest:
		return "nearest"
	case Bilinear:
		return "bilinear"
	case Bicubic:
		return "bicubic"
	}
	return fmt.Sprintf("Interp(%d)", int(ip))
}

// Resize resamples g to w x h using the given kernel. Sampling uses
// pixel-center alignment (the same convention as OpenCV's resize), so
// Resize(g, g.W, g.H, k) is the identity for every kernel.
func Resize(g *Gray, w, h int, ip Interp) *Gray {
	return ResizeInto(&Gray{}, g, w, h, ip)
}

// ResizeInto is Resize into dst, reusing dst's pixel storage when it holds
// w*h samples (growing it otherwise), and returns dst. dst must not share
// storage with g.
func ResizeInto(dst, g *Gray, w, h int, ip Interp) *Gray {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imgproc: invalid resize target %dx%d", w, h))
	}
	if cap(dst.Pix) < w*h {
		dst.Pix = make([]uint8, w*h)
	}
	dst.W, dst.H, dst.Pix = w, h, dst.Pix[:w*h]
	if w == g.W && h == g.H {
		copy(dst.Pix, g.Pix)
		return dst
	}
	sx := float64(g.W) / float64(w)
	sy := float64(g.H) / float64(h)
	for y := 0; y < h; y++ {
		fy := (float64(y)+0.5)*sy - 0.5
		for x := 0; x < w; x++ {
			fx := (float64(x)+0.5)*sx - 0.5
			var v float64
			switch ip {
			case Nearest:
				v = float64(g.At(int(math.Round(fx)), int(math.Round(fy))))
			case Bilinear:
				v = sampleBilinear(g, fx, fy)
			case Bicubic:
				v = sampleBicubic(g, fx, fy)
			default:
				panic(fmt.Sprintf("imgproc: unknown interpolation %d", ip))
			}
			dst.Pix[y*w+x] = clamp8(v)
		}
	}
	return dst
}

// ResizeFloat resamples a floating-point image to w x h with the given
// kernel, using the same pixel-center convention as Resize.
func ResizeFloat(f *Float, w, h int, ip Interp) *Float {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imgproc: invalid resize target %dx%d", w, h))
	}
	if w == f.W && h == f.H {
		return f.Clone()
	}
	out := NewFloat(w, h)
	sx := float64(f.W) / float64(w)
	sy := float64(f.H) / float64(h)
	for y := 0; y < h; y++ {
		fy := (float64(y)+0.5)*sy - 0.5
		for x := 0; x < w; x++ {
			fx := (float64(x)+0.5)*sx - 0.5
			var v float64
			switch ip {
			case Nearest:
				v = f.At(int(math.Round(fx)), int(math.Round(fy)))
			case Bilinear:
				v = sampleBilinearFloat(f, fx, fy)
			case Bicubic:
				v = sampleBicubicFloat(f, fx, fy)
			default:
				panic(fmt.Sprintf("imgproc: unknown interpolation %d", ip))
			}
			out.Pix[y*w+x] = v
		}
	}
	return out
}

// Scale resizes g by the given factor (> 1 enlarges). The output dimensions
// are rounded to the nearest integer and floored at 1 pixel.
func Scale(g *Gray, factor float64, ip Interp) *Gray {
	if factor <= 0 {
		panic("imgproc: scale factor must be positive")
	}
	w := int(math.Round(float64(g.W) * factor))
	h := int(math.Round(float64(g.H) * factor))
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	return Resize(g, w, h, ip)
}

func sampleBilinear(g *Gray, fx, fy float64) float64 {
	x0 := int(math.Floor(fx))
	y0 := int(math.Floor(fy))
	ax := fx - float64(x0)
	ay := fy - float64(y0)
	v00 := float64(g.At(x0, y0))
	v10 := float64(g.At(x0+1, y0))
	v01 := float64(g.At(x0, y0+1))
	v11 := float64(g.At(x0+1, y0+1))
	top := v00 + ax*(v10-v00)
	bot := v01 + ax*(v11-v01)
	return top + ay*(bot-top)
}

func sampleBilinearFloat(f *Float, fx, fy float64) float64 {
	x0 := int(math.Floor(fx))
	y0 := int(math.Floor(fy))
	ax := fx - float64(x0)
	ay := fy - float64(y0)
	v00 := f.At(x0, y0)
	v10 := f.At(x0+1, y0)
	v01 := f.At(x0, y0+1)
	v11 := f.At(x0+1, y0+1)
	top := v00 + ax*(v10-v00)
	bot := v01 + ax*(v11-v01)
	return top + ay*(bot-top)
}

// cubicWeight is the Catmull-Rom kernel (Keys, a = -0.5).
func cubicWeight(t float64) float64 {
	t = math.Abs(t)
	const a = -0.5
	switch {
	case t <= 1:
		return (a+2)*t*t*t - (a+3)*t*t + 1
	case t < 2:
		return a*t*t*t - 5*a*t*t + 8*a*t - 4*a
	}
	return 0
}

func sampleBicubic(g *Gray, fx, fy float64) float64 {
	x0 := int(math.Floor(fx))
	y0 := int(math.Floor(fy))
	var sum, wsum float64
	for j := -1; j <= 2; j++ {
		wy := cubicWeight(fy - float64(y0+j))
		if wy == 0 {
			continue
		}
		for i := -1; i <= 2; i++ {
			wx := cubicWeight(fx - float64(x0+i))
			if wx == 0 {
				continue
			}
			w := wx * wy
			sum += w * float64(g.At(x0+i, y0+j))
			wsum += w
		}
	}
	if wsum == 0 {
		return float64(g.At(x0, y0))
	}
	return sum / wsum
}

func sampleBicubicFloat(f *Float, fx, fy float64) float64 {
	x0 := int(math.Floor(fx))
	y0 := int(math.Floor(fy))
	var sum, wsum float64
	for j := -1; j <= 2; j++ {
		wy := cubicWeight(fy - float64(y0+j))
		if wy == 0 {
			continue
		}
		for i := -1; i <= 2; i++ {
			wx := cubicWeight(fx - float64(x0+i))
			if wx == 0 {
				continue
			}
			w := wx * wy
			sum += w * f.At(x0+i, y0+j)
			wsum += w
		}
	}
	if wsum == 0 {
		return f.At(x0, y0)
	}
	return sum / wsum
}

// Pyramid builds an image pyramid: level i is g scaled by 1/step^i, stopping
// when either dimension would drop below minW x minH or after maxLevels
// levels (whichever comes first). Level 0 is a copy of g itself. This is the
// conventional multi-scale baseline the paper improves upon.
func Pyramid(g *Gray, step float64, minW, minH, maxLevels int, ip Interp) []*Gray {
	if step <= 1 {
		panic("imgproc: pyramid step must exceed 1")
	}
	if maxLevels <= 0 {
		maxLevels = math.MaxInt32
	}
	var levels []*Gray
	for i := 0; i < maxLevels; i++ {
		f := math.Pow(step, float64(i))
		w := int(math.Round(float64(g.W) / f))
		h := int(math.Round(float64(g.H) / f))
		if w < minW || h < minH {
			break
		}
		levels = append(levels, Resize(g, w, h, ip))
	}
	return levels
}
