package featpyr

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/fixed"
	"repro/internal/geom"
	"repro/internal/hog"
	"repro/internal/imgproc"
	"repro/internal/obs"
)

func randomMap(t *testing.T, w, h int, seed int64) *hog.FeatureMap {
	t.Helper()
	img := imgproc.NewGray(w, h)
	rng := rand.New(rand.NewSource(seed))
	for i := range img.Pix {
		img.Pix[i] = uint8(rng.Intn(256))
	}
	fm, err := hog.Compute(img, hog.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return fm
}

func TestScaleMapIdentity(t *testing.T) {
	fm := randomMap(t, 128, 128, 1)
	out, err := ScaleMap(fm, fm.BlocksX, fm.BlocksY, ScaleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range fm.Feat {
		if math.Abs(out.Feat[i]-fm.Feat[i]) > 1e-12 {
			t.Fatalf("identity scale changed feature %d", i)
		}
	}
}

func TestScaleMapDims(t *testing.T) {
	fm := randomMap(t, 160, 320, 2) // 20x40 blocks
	out, err := ScaleMapBy(fm, 2, ScaleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if out.BlocksX != 10 || out.BlocksY != 20 {
		t.Errorf("2x down: %dx%d, want 10x20", out.BlocksX, out.BlocksY)
	}
	if out.BlockLen != fm.BlockLen {
		t.Error("block length changed")
	}
	// 1.1 factor like the paper.
	out11, err := ScaleMapBy(fm, 1.1, ScaleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if out11.BlocksX != 18 || out11.BlocksY != 36 {
		t.Errorf("1.1x down: %dx%d, want 18x36", out11.BlocksX, out11.BlocksY)
	}
}

func TestScaleMapErrors(t *testing.T) {
	fm := randomMap(t, 64, 128, 3)
	if _, err := ScaleMap(fm, 0, 5, ScaleConfig{}); err == nil {
		t.Error("zero target should error")
	}
	if _, err := ScaleMapBy(fm, -1, ScaleConfig{}); err == nil {
		t.Error("negative factor should error")
	}
	if _, err := ScaleMapBy(fm, 1000, ScaleConfig{}); err == nil {
		t.Error("factor that eliminates the map should error")
	}
}

func TestScaleMapValuesConvex(t *testing.T) {
	// Bilinear interpolation is a convex combination: outputs stay within
	// the input value range per channel.
	fm := randomMap(t, 128, 256, 4)
	out, err := ScaleMapBy(fm, 1.3, ScaleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi float64 = math.Inf(1), math.Inf(-1)
	for _, v := range fm.Feat {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	for i, v := range out.Feat {
		if v < lo-1e-12 || v > hi+1e-12 {
			t.Fatalf("output %d = %v outside input range [%v,%v]", i, v, lo, hi)
		}
	}
}

func TestNearestMatchesSourceBlocks(t *testing.T) {
	fm := randomMap(t, 128, 128, 5)
	out, err := ScaleMapBy(fm, 2, ScaleConfig{Nearest: true})
	if err != nil {
		t.Fatal(err)
	}
	// Every output block must be an exact copy of some input block.
	for oy := 0; oy < out.BlocksY; oy++ {
		for ox := 0; ox < out.BlocksX; ox++ {
			b := out.Block(ox, oy)
			found := false
		search:
			for iy := 0; iy < fm.BlocksY; iy++ {
				for ix := 0; ix < fm.BlocksX; ix++ {
					src := fm.Block(ix, iy)
					same := true
					for k := range b {
						if b[k] != src[k] {
							same = false
							break
						}
					}
					if same {
						found = true
						break search
					}
				}
			}
			if !found {
				t.Fatalf("output block (%d,%d) is not a copy of any input block", ox, oy)
			}
		}
	}
}

func TestRenormalizeRestoresUnitNorm(t *testing.T) {
	fm := randomMap(t, 128, 256, 6)
	out, err := ScaleMapBy(fm, 1.4, ScaleConfig{Renormalize: true})
	if err != nil {
		t.Fatal(err)
	}
	for by := 0; by < out.BlocksY; by++ {
		for bx := 0; bx < out.BlocksX; bx++ {
			var ss float64
			for _, v := range out.Block(bx, by) {
				ss += v * v
			}
			n := math.Sqrt(ss)
			if n > 1.0+1e-9 {
				t.Fatalf("renormalized block (%d,%d) norm %v > 1", bx, by, n)
			}
		}
	}
}

func TestLambdaGain(t *testing.T) {
	fm := randomMap(t, 128, 256, 7)
	plain, err := ScaleMapBy(fm, 2, ScaleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	boosted, err := ScaleMapBy(fm, 2, ScaleConfig{Lambda: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Down-sampling by 2 with lambda 1 multiplies features by 2^-(-1)?
	// gain = s^-lambda where s = in/out = 2 -> gain = 0.5.
	for i := range plain.Feat {
		if plain.Feat[i] == 0 {
			continue
		}
		ratio := boosted.Feat[i] / plain.Feat[i]
		if math.Abs(ratio-0.5) > 1e-9 {
			t.Fatalf("lambda gain = %v, want 0.5", ratio)
		}
	}
}

// TestFeatureScalingApproximatesImageScaling is the core premise of the
// paper: HOG(downscale(image)) ~= downscale(HOG(image)). The two are not
// identical (that is the approximation being traded), but for modest
// factors the cosine similarity of window descriptors must be high.
func TestFeatureScalingApproximatesImageScaling(t *testing.T) {
	cfg := hog.DefaultConfig()
	// A structured image (not noise): blurred random blobs.
	img := imgproc.NewGray(128, 256)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 40; i++ {
		x, y := rng.Intn(128), rng.Intn(256)
		w, h := rng.Intn(30)+10, rng.Intn(60)+10
		imgproc.FillEllipse(img, geom.XYWH(x, y, w, h), uint8(rng.Intn(200)+55))
	}
	img = imgproc.GaussianBlur(img, 1.5)

	// Thresholds taper with scale: the approximation degrades as the factor
	// grows, which is exactly the paper's observation that feature scaling
	// stops winning beyond ~1.5.
	thresholds := map[float64]float64{1.1: 0.83, 1.2: 0.81, 1.3: 0.78, 1.5: 0.70}
	for _, factor := range []float64{1.1, 1.2, 1.3, 1.5} {
		// Path A: downscale the image, then extract features.
		small := imgproc.Resize(img, int(math.Round(128/factor)), int(math.Round(256/factor)), imgproc.Bilinear)
		fmA, err := hog.Compute(small, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Path B: extract features, then downscale the feature map to the
		// same block grid.
		fmFull, err := hog.Compute(img, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fmB, err := ScaleMap(fmFull, fmA.BlocksX, fmA.BlocksY, ScaleConfig{})
		if err != nil {
			t.Fatal(err)
		}
		cos := cosine(fmA.Feat, fmB.Feat)
		if cos < thresholds[factor] {
			t.Errorf("factor %v: cosine(HOG(img down), HOG down) = %.4f, want >= %.2f",
				factor, cos, thresholds[factor])
		}
	}
}

func cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

func TestBuildPyramidLevels(t *testing.T) {
	ctx := context.Background()
	fm := randomMap(t, 512, 512, 9) // 64x64 blocks
	var p Pyramid
	if err := p.Build(ctx, fm, 1.1, 8, 16, 0, 0, ScaleConfig{}, 1); err != nil {
		t.Fatal(err)
	}
	if len(p.Levels) < 10 {
		t.Fatalf("only %d levels from 64x64 down to 8x16", len(p.Levels))
	}
	if p.Levels[0].Scale != 1 || p.Levels[0].Map != fm {
		t.Error("level 0 must be the base map itself, at native scale")
	}
	for i := 1; i < len(p.Levels); i++ {
		l, prev := p.Levels[i], p.Levels[i-1]
		if l.Scale <= prev.Scale {
			t.Fatal("scales must increase")
		}
		if l.Map.BlocksX > prev.Map.BlocksX || l.Map.BlocksY > prev.Map.BlocksY {
			t.Fatal("maps must shrink")
		}
		if l.Map.BlocksX < 8 || l.Map.BlocksY < 16 {
			t.Fatal("level smaller than the window was kept")
		}
	}
	// maxLevels cap works.
	var p2 Pyramid
	if err := p2.Build(ctx, fm, 1.1, 8, 16, 2, 0, ScaleConfig{}, 1); err != nil {
		t.Fatal(err)
	}
	if len(p2.Levels) != 2 {
		t.Errorf("maxLevels=2 gave %d levels", len(p2.Levels))
	}
	// Base smaller than window errors.
	small := randomMap(t, 64, 64, 10) // 8x8 blocks < 8x16 window
	if err := p2.Build(ctx, small, 1.1, 8, 16, 0, 0, ScaleConfig{}, 1); err == nil {
		t.Error("under-window base should error")
	}
	if err := p2.BuildChained(ctx, small, 1.1, 8, 16, 0, ScaleConfig{}, 1); err == nil {
		t.Error("under-window base should error when chained too")
	}
	if err := p2.Build(ctx, fm, 1.0, 8, 16, 0, 0, ScaleConfig{}, 1); err == nil {
		t.Error("step 1.0 should error")
	}
}

func TestBuildChainedMatchesDirectApproximately(t *testing.T) {
	ctx := context.Background()
	fm := randomMap(t, 256, 512, 11)
	var direct, chained Pyramid
	if err := direct.Build(ctx, fm, 1.2, 8, 16, 4, 0, ScaleConfig{}, 1); err != nil {
		t.Fatal(err)
	}
	if err := chained.BuildChained(ctx, fm, 1.2, 8, 16, 4, ScaleConfig{}, 1); err != nil {
		t.Fatal(err)
	}
	if len(direct.Levels) != len(chained.Levels) {
		t.Fatalf("level count differs: %d vs %d", len(direct.Levels), len(chained.Levels))
	}
	// Level 1 should agree closely (one interpolation in both cases);
	// later levels drift but remain correlated.
	for i := 1; i < len(direct.Levels); i++ {
		d, c := direct.Levels[i].Map, chained.Levels[i].Map
		if d.BlocksX != c.BlocksX || d.BlocksY != c.BlocksY {
			// Chained rounding can differ by one block; tolerate but note.
			t.Logf("level %d size: direct %dx%d vs chained %dx%d",
				i, d.BlocksX, d.BlocksY, c.BlocksX, c.BlocksY)
			continue
		}
		cos := cosine(d.Feat, c.Feat)
		if cos < 0.95 {
			t.Errorf("level %d chained/direct cosine %.4f < 0.95", i, cos)
		}
	}
}

// sameBits reports the first index at which a and b differ in bits, or -1.
func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// scaleConfigs are the float scaler variants whose arithmetic the row-band
// split must preserve: plain bilinear, the power-law gain, renormalization,
// and nearest neighbour.
var scaleConfigs = map[string]ScaleConfig{
	"bilinear":    {},
	"lambda":      {Lambda: 0.11},
	"renormalize": {Renormalize: true, Lambda: -0.3},
	"nearest":     {Nearest: true, Lambda: 0.2},
}

// kernelPaths runs f once per resample dispatch path, pinning the row
// kernel on (where the CPU has it; a CPU without it logs the skip) and
// off.
func kernelPaths(t *testing.T, f func(t *testing.T, kernel bool)) {
	t.Helper()
	for _, kernel := range []bool{true, false} {
		t.Run(fmt.Sprintf("kernel=%v", kernel), func(t *testing.T) {
			if kernel && !haveRowKernel {
				t.Skip("no AVX2: the vector row kernel cannot run here")
			}
			defer SetResampleKernel(SetResampleKernel(kernel))
			f(t, kernel)
		})
	}
}

// scalarScale is ScaleMapRatio on the scalar loop, the reference every
// resample bit-equality test compares against, whichever path is under
// test.
func scalarScale(t *testing.T, src *hog.FeatureMap, bx, by int, rx, ry float64, cfg ScaleConfig) *hog.FeatureMap {
	t.Helper()
	defer SetResampleKernel(SetResampleKernel(false))
	m, err := ScaleMapRatio(src, bx, by, rx, ry, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestResampleRowsAnySplitBitIdentical pins the row-range resampler: on
// either dispatch path, any partition of the output rows into bands, in
// any order, reproduces the scalar whole-map resample bit for bit.
func TestResampleRowsAnySplitBitIdentical(t *testing.T) {
	src := randomMap(t, 200, 328, 40)
	kernelPaths(t, func(t *testing.T, _ bool) {
		rng := rand.New(rand.NewSource(41))
		for name, cfg := range scaleConfigs {
			for _, grid := range [][2]int{{19, 33}, {7, 1}, {25, 41}} {
				rx := float64(src.BlocksX) / float64(grid[0]) * 1.03
				ry := float64(src.BlocksY) / float64(grid[1])
				want := scalarScale(t, src, grid[0], grid[1], rx, ry, cfg)
				taps := newTaps(grid[0], src, rx)
				for trial := 0; trial < 5; trial++ {
					got := newMap(grid[0], grid[1], src)
					for i := range got.Feat {
						got.Feat[i] = math.NaN() // every element must be written
					}
					var cuts []int
					for y := 1; y < grid[1]; y++ {
						if rng.Intn(3) == 0 {
							cuts = append(cuts, y)
						}
					}
					cuts = append(append([]int{0}, cuts...), grid[1])
					for _, b := range rng.Perm(len(cuts) - 1) {
						resampleRows(got, src, taps, rx, ry, cfg, cuts[b], cuts[b+1])
					}
					if i := sameBits(got.Feat, want.Feat); i >= 0 {
						t.Fatalf("%s %v cuts %v: feature %d = %v, scalar whole-map %v", name, grid, cuts, i, got.Feat[i], want.Feat[i])
					}
				}
			}
		}
	})
}

// TestPyramidBuildMatchesScaleMap pins the parallel builds, on either
// dispatch path, to the scalar single-map scaler bit for bit at every
// worker count: a direct level is ScaleMap of the base, a chained level
// ScaleMap of the level before. The level timer gets exactly one
// observation per resampled level.
func TestPyramidBuildMatchesScaleMap(t *testing.T) {
	ctx := context.Background()
	base := randomMap(t, 264, 400, 42)
	kernelPaths(t, func(t *testing.T, _ bool) {
		for name, cfg := range scaleConfigs {
			for _, workers := range []int{1, 2, 3, 8} {
				var p Pyramid
				for _, chained := range []bool{false, true} {
					timer := new(obs.Histogram)
					cfg.LevelTimer = timer
					var err error
					if chained {
						err = p.BuildChained(ctx, base, 1.15, 8, 16, 0, cfg, workers)
					} else {
						err = p.Build(ctx, base, 1.15, 8, 16, 0, 0, cfg, workers)
					}
					if err != nil {
						t.Fatal(err)
					}
					if got, want := timer.Snapshot().Count, uint64(len(p.Levels)-1); got != want {
						t.Errorf("%s workers=%d chained=%v: %d level timings for %d resampled levels", name, workers, chained, got, want)
					}
					cfg.LevelTimer = nil
					prev := base
					for i, l := range p.Levels[1:] {
						src := base
						if chained {
							src = prev
						}
						want := scalarScale(t, src, l.Map.BlocksX, l.Map.BlocksY,
							float64(src.BlocksX)/float64(l.Map.BlocksX), float64(src.BlocksY)/float64(l.Map.BlocksY), cfg)
						if j := sameBits(l.Map.Feat, want.Feat); j >= 0 {
							t.Fatalf("%s workers=%d chained=%v level %d: feature %d differs from scalar ScaleMap", name, workers, chained, i+1, j)
						}
						prev = l.Map
					}
				}
			}
		}
	})
}

// synthMap returns a bx x by map under cfg filled with seeded values in
// [0, 0.5), about one in eight exactly zero: resampling reads no HOG
// structure, so any block length the config implies can be exercised.
func synthMap(bx, by int, cfg hog.Config, seed int64) *hog.FeatureMap {
	rng := rand.New(rand.NewSource(seed))
	m := &hog.FeatureMap{BlocksX: bx, BlocksY: by, BlockLen: cfg.BlockLen(), Cfg: cfg}
	m.Feat = make([]float64, bx*by*m.BlockLen)
	for i := range m.Feat {
		if rng.Intn(8) != 0 {
			m.Feat[i] = rng.Float64() / 2
		}
	}
	return m
}

// TestResampleKernelMatchesScalar sweeps the row kernel's edge cases
// against the scalar loop with math.Float64bits: block lengths that are
// not a multiple of four (9 and 45, and 2, which is all tail), every
// ScaleConfig variant, 1-block-wide maps, and up-sampling, whose samples
// clamp at both edges; through ScaleMapRatio and through Pyramid.Scale at
// workers 1, 2, 3 and 8 over storage that held NaNs, so every feature must
// be written.
func TestResampleKernelMatchesScalar(t *testing.T) {
	ctx := context.Background()
	hogCfg := func(bins, cells int) hog.Config {
		c := hog.DefaultConfig()
		c.Bins, c.BlockCells = bins, cells
		return c
	}
	configs := map[string]hog.Config{
		"len36": hog.DefaultConfig(),
		"len9":  hogCfg(9, 1),
		"len45": hogCfg(5, 3),
		"len2":  hogCfg(2, 1),
	}
	scales := map[string]ScaleConfig{
		"lambda+renormalize": {Lambda: 0.11, Renormalize: true},
		"lambda+nearest":     {Lambda: 0.11, Nearest: true},
	}
	for name, c := range scaleConfigs {
		scales[name] = c
	}
	// {source bx, by, target bx, by}
	geoms := [][4]int{
		{23, 31, 17, 22}, // down-sample
		{1, 9, 1, 5},     // 1-block-wide source and target
		{19, 12, 1, 7},   // wide source to 1-block-wide target
		{7, 5, 16, 11},   // up-sample: rx, ry < 1
		{3, 2, 10, 9},    // strong up-sample, clamps at both edges
	}
	kernelPaths(t, func(t *testing.T, _ bool) {
		for cname, hc := range configs {
			for sname, sc := range scales {
				for gi, g := range geoms {
					src := synthMap(g[0], g[1], hc, int64(gi)+7)
					rx := float64(g[0]) / float64(g[2])
					ry := float64(g[1]) / float64(g[3])
					want := scalarScale(t, src, g[2], g[3], rx, ry, sc)
					got, err := ScaleMapRatio(src, g[2], g[3], rx, ry, sc)
					if err != nil {
						t.Fatal(err)
					}
					if i := sameBits(got.Feat, want.Feat); i >= 0 {
						t.Fatalf("%s %s %v ScaleMapRatio: feature %d = %v, scalar %v", cname, sname, g, i, got.Feat[i], want.Feat[i])
					}
					for _, workers := range []int{1, 2, 3, 8} {
						var p Pyramid
						if _, err := p.Scale(ctx, src, g[2], g[3], rx, ry, sc, workers); err != nil {
							t.Fatal(err)
						}
						p.Reserve(0, 0, 0)
						for i := range p.slab {
							p.slab[i] = math.NaN()
						}
						m, err := p.Scale(ctx, src, g[2], g[3], rx, ry, sc, workers)
						if err != nil {
							t.Fatal(err)
						}
						if i := sameBits(m.Feat, want.Feat); i >= 0 {
							t.Fatalf("%s %s %v workers=%d: feature %d = %v, scalar %v", cname, sname, g, workers, i, m.Feat[i], want.Feat[i])
						}
					}
				}
			}
		}
	})
}

// TestPyramidRebuildReusesStorage: a rebuild of the same geometry reuses
// the pyramid's slab and headers — it allocates nothing at workers=1 — and
// reproduces the first build's features exactly, whatever the previous
// frame left in the storage.
func TestPyramidRebuildReusesStorage(t *testing.T) {
	ctx := context.Background()
	base := randomMap(t, 320, 400, 31)
	other := randomMap(t, 320, 400, 30)
	var p Pyramid
	if err := p.Build(ctx, base, 1.1, 8, 16, 4, 0, ScaleConfig{}, 1); err != nil {
		t.Fatal(err)
	}
	snap := make([][]float64, len(p.Levels))
	for i, l := range p.Levels {
		snap[i] = append([]float64(nil), l.Map.Feat...)
	}
	slab := &p.Levels[1].Map.Feat[0]
	if err := p.Build(ctx, other, 1.1, 8, 16, 4, 0, ScaleConfig{}, 1); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(5, func() {
		if err := p.Build(ctx, base, 1.1, 8, 16, 4, 0, ScaleConfig{}, 1); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("rebuild: %v allocs/op, want 0", n)
	}
	if &p.Levels[1].Map.Feat[0] != slab {
		t.Error("rebuild moved level 1 off the pyramid's slab")
	}
	if len(p.Levels) != len(snap) {
		t.Fatalf("rebuild has %d levels, want %d", len(p.Levels), len(snap))
	}
	for i, l := range p.Levels {
		if j := sameBits(l.Map.Feat, snap[i]); j >= 0 {
			t.Fatalf("level %d feature %d changed on rebuild over reused storage", i, j)
		}
	}
}

// TestBuildFixedMatchesScaleMap pins BuildFixed to the single-map fixed
// scaler: level i is FixedScaler.ScaleMap of level i-1 bit for bit, on the
// ladder of grids BuildChained plans, a nil scaler is the default one, the
// timer gets one observation per level, and a rebuild reuses the storage.
func TestBuildFixedMatchesScaleMap(t *testing.T) {
	ctx := context.Background()
	base := randomMap(t, 264, 400, 43)
	var chained Pyramid
	if err := chained.BuildChained(ctx, base, 1.15, 8, 16, 0, ScaleConfig{}, 1); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*FixedScaler{nil, {FeatFmt: fixed.Q(2, 13), WeightFrac: 6}} {
		ref := s
		if ref == nil {
			ref = NewFixedScaler()
		}
		var p Pyramid
		timer := new(obs.Histogram)
		if err := p.BuildFixed(ctx, base, 1.15, 8, 16, 0, s, timer); err != nil {
			t.Fatal(err)
		}
		if len(p.Levels) != len(chained.Levels) || p.Levels[0].Map != base {
			t.Fatalf("%d levels (level 0 base: %v), BuildChained plans %d", len(p.Levels), p.Levels[0].Map == base, len(chained.Levels))
		}
		if got, want := timer.Snapshot().Count, uint64(len(p.Levels)-1); got != want {
			t.Errorf("%d level timings for %d scaled levels", got, want)
		}
		for i := 1; i < len(p.Levels); i++ {
			m, c := p.Levels[i].Map, chained.Levels[i].Map
			if m.BlocksX != c.BlocksX || m.BlocksY != c.BlocksY {
				t.Fatalf("level %d: grid %dx%d, BuildChained's %dx%d", i, m.BlocksX, m.BlocksY, c.BlocksX, c.BlocksY)
			}
			want, _, err := ref.ScaleMap(p.Levels[i-1].Map, m.BlocksX, m.BlocksY)
			if err != nil {
				t.Fatal(err)
			}
			if j := sameBits(m.Feat, want.Feat); j >= 0 {
				t.Fatalf("level %d: feature %d differs from FixedScaler.ScaleMap", i, j)
			}
		}
		slab := &p.Levels[1].Map.Feat[0]
		if err := p.BuildFixed(ctx, base, 1.15, 8, 16, 0, s, nil); err != nil {
			t.Fatal(err)
		}
		if &p.Levels[1].Map.Feat[0] != slab {
			t.Error("rebuild moved level 1 off the pyramid's slab")
		}
	}
}

func TestFixedScalerMatchesFloat(t *testing.T) {
	fm := randomMap(t, 128, 256, 12)
	fs := NewFixedScaler()
	for _, factor := range []float64{1.1, 1.5, 2.0} {
		qout, stats, err := fs.ScaleMapBy(fm, factor)
		if err != nil {
			t.Fatal(err)
		}
		fout, err := ScaleMapBy(fm, factor, ScaleConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if qout.BlocksX != fout.BlocksX || qout.BlocksY != fout.BlocksY {
			t.Fatalf("factor %v: dims differ", factor)
		}
		var maxErr float64
		for i := range qout.Feat {
			if e := math.Abs(qout.Feat[i] - fout.Feat[i]); e > maxErr {
				maxErr = e
			}
		}
		// 8-bit weights + 16-bit features: error bounded by a few weight LSBs
		// times the feature magnitude (features <= ~0.4).
		if maxErr > 0.02 {
			t.Errorf("factor %v: max fixed/float error %v > 0.02", factor, maxErr)
		}
		if stats.OutputBlocks != qout.BlocksX*qout.BlocksY {
			t.Error("stats block count wrong")
		}
		if stats.MaxAdders <= 0 || stats.Phases <= 0 {
			t.Errorf("implausible stats %+v", stats)
		}
	}
}

func TestFixedScalerErrors(t *testing.T) {
	fm := randomMap(t, 64, 128, 13)
	fs := NewFixedScaler()
	if _, _, err := fs.ScaleMap(fm, 0, 1); err == nil {
		t.Error("zero target should error")
	}
	if _, _, err := fs.ScaleMapBy(fm, 0); err == nil {
		t.Error("zero factor should error")
	}
	bad := &FixedScaler{FeatFmt: NewFixedScaler().FeatFmt, WeightFrac: 0}
	if _, _, err := bad.ScaleMap(fm, 4, 8); err == nil {
		t.Error("invalid weight frac should error")
	}
}

func TestFixedScalerIdentityIsLossless(t *testing.T) {
	// At identity scale every phase weight is exactly 1: the only error is
	// the initial feature quantization.
	fm := randomMap(t, 64, 128, 14)
	fs := NewFixedScaler()
	out, _, err := fs.ScaleMap(fm, fm.BlocksX, fm.BlocksY)
	if err != nil {
		t.Fatal(err)
	}
	eps := fs.FeatFmt.Eps()
	for i := range fm.Feat {
		if math.Abs(out.Feat[i]-fm.Feat[i]) > eps {
			t.Fatalf("identity fixed scale error %v > one LSB %v", math.Abs(out.Feat[i]-fm.Feat[i]), eps)
		}
	}
}

// Property: bilinear feature scaling is linear — scaling a feature map
// multiplied by a constant equals the scaled map multiplied by the same
// constant.
func TestScaleMapLinearityProperty(t *testing.T) {
	fm := randomMap(t, 128, 128, 40)
	f := func(gain8 uint8) bool {
		gain := 0.1 + float64(gain8%40)/10
		scaled := fm.Clone()
		for i := range scaled.Feat {
			scaled.Feat[i] *= gain
		}
		a, err := ScaleMapBy(scaled, 1.3, ScaleConfig{})
		if err != nil {
			return false
		}
		b, err := ScaleMapBy(fm, 1.3, ScaleConfig{})
		if err != nil {
			return false
		}
		for i := range a.Feat {
			if math.Abs(a.Feat[i]-gain*b.Feat[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Property: resampling preserves the mean feature value approximately (the
// kernel is a partition of unity away from borders).
func TestScaleMapMeanPreserved(t *testing.T) {
	fm := randomMap(t, 256, 256, 41)
	out, err := ScaleMapBy(fm, 1.25, ScaleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mean := func(xs []float64) float64 {
		var s float64
		for _, v := range xs {
			s += v
		}
		return s / float64(len(xs))
	}
	mi, mo := mean(fm.Feat), mean(out.Feat)
	if math.Abs(mi-mo) > 0.05*mi {
		t.Errorf("mean drifted: %v -> %v", mi, mo)
	}
}

func TestScaleMapRatioRejectsBadRatios(t *testing.T) {
	fm := randomMap(t, 64, 128, 42)
	if _, err := ScaleMapRatio(fm, 8, 16, 0, 1, ScaleConfig{}); err == nil {
		t.Error("zero ratio should error")
	}
	if _, _, err := NewFixedScaler().ScaleMapRatio(fm, 8, 16, -1, 1); err == nil {
		t.Error("negative ratio should error in the fixed scaler too")
	}
}

// TestFixedScalerPooledScratch: the quantized-input scratch is pooled
// across calls, and ScaleInto overwrites every feature of a reused map, so
// repeated scaling into dirty storage reproduces a fresh ScaleMap exactly.
func TestFixedScalerPooledScratch(t *testing.T) {
	base := randomMap(t, 256, 320, 33)
	s := NewFixedScaler()
	a, _, err := s.ScaleMapBy(base, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	dst := newMap(a.BlocksX, a.BlocksY, base)
	for i := range dst.Feat {
		dst.Feat[i] = math.NaN()
	}
	for pass := 0; pass < 2; pass++ {
		if _, err := s.ScaleInto(dst, base, float64(base.BlocksX)/float64(a.BlocksX), float64(base.BlocksY)/float64(a.BlocksY)); err != nil {
			t.Fatal(err)
		}
		if j := sameBits(dst.Feat, a.Feat); j >= 0 {
			t.Fatalf("pass %d: feature %d = %v, ScaleMap %v", pass, j, dst.Feat[j], a.Feat[j])
		}
	}
	if _, err := s.ScaleInto(newMap(3, 3, base), base, 1, 1); err != nil {
		t.Fatal(err)
	}
	bad := newMap(3, 3, base)
	bad.Feat = bad.Feat[:5]
	if _, err := s.ScaleInto(bad, base, 1, 1); err == nil {
		t.Error("a target map whose storage does not fit its grid should error")
	}
}

// TestFixedScalerSharedConcurrent: goroutines that share one scaler, and
// so build its phase networks concurrently, reproduce the stats and the
// exact bits of a scaler used alone, at two weight precisions.
func TestFixedScalerSharedConcurrent(t *testing.T) {
	base := randomMap(t, 256, 320, 41)
	shared := NewFixedScaler()
	for _, frac := range []int{8, 11} {
		alone := NewFixedScaler()
		alone.WeightFrac = frac
		shared.WeightFrac = frac
		factors := []float64{1.1, 1.21, 1.5, 2}
		want := make([]*hog.FeatureMap, len(factors))
		wantStats := make([]*ScaleStats, len(factors))
		for i, f := range factors {
			var err error
			if want[i], wantStats[i], err = alone.ScaleMapBy(base, f); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		errs := make(chan string, 4*len(factors))
		for g := 0; g < 4; g++ {
			for i, f := range factors {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got, st, err := shared.ScaleMapBy(base, f)
					switch {
					case err != nil:
						errs <- err.Error()
					case *st != *wantStats[i]:
						errs <- fmt.Sprintf("frac %d factor %v: stats %+v, alone %+v", frac, f, *st, *wantStats[i])
					case sameBits(got.Feat, want[i].Feat) >= 0:
						errs <- fmt.Sprintf("frac %d factor %v: features differ from the scaler used alone", frac, f)
					}
				}()
			}
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
}

// TestPyramidBuildShed pins Build's shedding: with the n finest levels shed
// (0 .. past the pyramid's depth, where the coarsest level must remain),
// the shed levels keep their scale with a nil map, every other level is
// bit-identical to a build that sheds nothing, and the level timer gets
// exactly one observation per level actually resampled.
func TestPyramidBuildShed(t *testing.T) {
	ctx := context.Background()
	base := randomMap(t, 200, 360, 43)
	var full Pyramid
	if err := full.Build(ctx, base, 1.2, 8, 16, 0, 0, ScaleConfig{}, 1); err != nil {
		t.Fatal(err)
	}
	n := len(full.Levels)
	for _, shed := range []int{0, 1, 2, 3, n - 1, n, n + 5} {
		for _, workers := range []int{1, 3} {
			var p Pyramid
			timer := new(obs.Histogram)
			if err := p.Build(ctx, base, 1.2, 8, 16, 0, shed, ScaleConfig{LevelTimer: timer}, workers); err != nil {
				t.Fatal(err)
			}
			if len(p.Levels) != n {
				t.Fatalf("shed=%d: %d levels, want %d", shed, len(p.Levels), n)
			}
			kept := min(shed, n-1)
			resampled := n - max(kept, 1)
			if got := timer.Snapshot().Count; got != uint64(resampled) {
				t.Errorf("shed=%d workers=%d: %d level timings for %d resampled levels", shed, workers, got, resampled)
			}
			for i, l := range p.Levels {
				if l.Scale != full.Levels[i].Scale {
					t.Fatalf("shed=%d level %d: scale %g, want %g", shed, i, l.Scale, full.Levels[i].Scale)
				}
				if i < kept {
					if l.Map != nil {
						t.Fatalf("shed=%d: shed level %d has a map", shed, i)
					}
					continue
				}
				want := full.Levels[i].Map
				if l.Map == nil || l.Map.BlocksX != want.BlocksX || l.Map.BlocksY != want.BlocksY {
					t.Fatalf("shed=%d level %d: map missing or not %dx%d", shed, i, want.BlocksX, want.BlocksY)
				}
				for k := range want.Feat {
					if math.Float64bits(l.Map.Feat[k]) != math.Float64bits(want.Feat[k]) {
						t.Fatalf("shed=%d workers=%d level %d feat[%d] = %v, unshed %v", shed, workers, i, k, l.Map.Feat[k], want.Feat[k])
					}
				}
			}
		}
	}
}
