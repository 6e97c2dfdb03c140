package hog

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/imgproc"
)

func mustCells(t *testing.T, img *imgproc.Gray, cfg Config) *CellGrid {
	t.Helper()
	g, err := ComputeCells(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustCompute(t *testing.T, img *imgproc.Gray, cfg Config) *FeatureMap {
	t.Helper()
	fm, err := Compute(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fm
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{CellSize: 1, BlockCells: 2, Bins: 9, HysClip: 0.2, Epsilon: 1e-3},
		{CellSize: 8, BlockCells: 0, Bins: 9, HysClip: 0.2, Epsilon: 1e-3},
		{CellSize: 8, BlockCells: 2, Bins: 1, HysClip: 0.2, Epsilon: 1e-3},
		{CellSize: 8, BlockCells: 2, Bins: 9, HysClip: 0, Epsilon: 1e-3},
		{CellSize: 8, BlockCells: 2, Bins: 9, HysClip: 0.2, Epsilon: 0},
		{CellSize: 8, BlockCells: 2, Bins: 9, HysClip: 0.2, Epsilon: math.NaN()},
		{CellSize: 8, BlockCells: 2, Bins: 9, HysClip: 0.2, Epsilon: math.Inf(1)},
		{CellSize: 8, BlockCells: 2, Bins: 9, HysClip: 0.2, Epsilon: math.Inf(-1)},
		{CellSize: 8, BlockCells: 2, Bins: 9, HysClip: math.NaN(), Epsilon: 1e-3},
		{CellSize: 8, BlockCells: 2, Bins: 9, HysClip: 0.2, Epsilon: 1e-3, Norm: Norm(7)},
		{CellSize: 8, BlockCells: 2, Bins: 9, HysClip: 0.2, Epsilon: 1e-3, Norm: Norm(-1)},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestDescriptorLengths(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.BlockLen(); got != 36 {
		t.Errorf("BlockLen = %d, want 36 (paper: 36 elements per block)", got)
	}
	// Hardware layout: 8x16 blocks x 36 = 4608 (paper: 16x8 blocks).
	if got := cfg.DescriptorLen(64, 128); got != 4608 {
		t.Errorf("per-cell descriptor = %d, want 4608", got)
	}
	cfg.Layout = LayoutOverlap
	// Dalal-Triggs: 7x15 blocks x 36 = 3780.
	if got := cfg.DescriptorLen(64, 128); got != 3780 {
		t.Errorf("overlap descriptor = %d, want 3780", got)
	}
}

func TestComputeCellsConstantImageIsZero(t *testing.T) {
	img := imgproc.NewGray(64, 64)
	img.Fill(123)
	grid := mustCells(t, img, DefaultConfig())
	for _, v := range grid.Hist {
		if v != 0 {
			t.Fatal("constant image should produce zero histograms")
		}
	}
}

func TestComputeCellsGridDimensions(t *testing.T) {
	cfg := DefaultConfig()
	img := imgproc.NewGray(65, 71) // partial cells at the edges are dropped
	grid := mustCells(t, img, cfg)
	if grid.CellsX != 8 || grid.CellsY != 8 {
		t.Errorf("grid %dx%d, want 8x8", grid.CellsX, grid.CellsY)
	}
	// Too-small image errors.
	if _, err := ComputeCells(imgproc.NewGray(4, 4), cfg); err == nil {
		t.Error("sub-cell image should error")
	}
}

// TestVerticalEdgeBinsHorizontalGradient: a vertical edge produces a purely
// horizontal gradient, i.e. orientation 0 which lands in the bins nearest
// theta=0 (bin 0, and by the centered-bin convention partially the last bin).
func TestVerticalEdgeBinsHorizontalGradient(t *testing.T) {
	cfg := DefaultConfig()
	img := imgproc.NewGray(32, 32)
	for y := 0; y < 32; y++ {
		for x := 16; x < 32; x++ {
			img.Set(x, y, 255)
		}
	}
	grid := mustCells(t, img, cfg)
	// The edge runs through cells (1,*) and (2,*). Sum all cells.
	sums := make([]float64, cfg.Bins)
	for i, v := range grid.Hist {
		sums[i%cfg.Bins] += v
	}
	// theta=0 is half way between bin 8 and bin 0 centers (centered bins),
	// so those two bins share the mass; every other bin stays empty.
	var other float64
	for b := 1; b < 8; b++ {
		other += sums[b]
	}
	if sums[0] == 0 || sums[8] == 0 {
		t.Errorf("horizontal gradient mass: bin0=%v bin8=%v", sums[0], sums[8])
	}
	if other > 1e-9 {
		t.Errorf("unexpected mass %v in middle bins: %v", other, sums)
	}
	if math.Abs(sums[0]-sums[8]) > 1e-9 {
		t.Errorf("theta=0 should split evenly: bin0=%v bin8=%v", sums[0], sums[8])
	}
}

// TestHorizontalEdge: a horizontal edge gives a vertical gradient
// (theta = pi/2), the center of bin 4 for 9 bins.
func TestHorizontalEdge(t *testing.T) {
	cfg := DefaultConfig()
	img := imgproc.NewGray(32, 32)
	for y := 16; y < 32; y++ {
		for x := 0; x < 32; x++ {
			img.Set(x, y, 255)
		}
	}
	grid := mustCells(t, img, cfg)
	sums := make([]float64, cfg.Bins)
	for i, v := range grid.Hist {
		sums[i%cfg.Bins] += v
	}
	for b := range sums {
		if b == 4 {
			if sums[b] == 0 {
				t.Error("bin 4 (vertical gradient) empty")
			}
			continue
		}
		if sums[b] > 1e-9 {
			t.Errorf("bin %d has unexpected mass %v", b, sums[b])
		}
	}
}

// TestDiagonalEdgeSplitsBins: a 45-degree gradient falls between bins and
// must be split across the two nearest.
func TestDiagonalEdgeSplitsBins(t *testing.T) {
	cfg := DefaultConfig()
	img := imgproc.NewGray(64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			if x+y > 64 {
				img.Set(x, y, 255)
			}
		}
	}
	grid := mustCells(t, img, cfg)
	sums := make([]float64, cfg.Bins)
	var total float64
	for i, v := range grid.Hist {
		sums[i%cfg.Bins] += v
		total += v
	}
	// The edge x+y=64 has gradient direction (1,1): theta = pi/4 = 45 deg
	// -> fb = 45/20 - 0.5 = 1.75: bins 1 and 2, bin 2 taking alpha = 0.75.
	if (sums[1]+sums[2])/total < 0.95 {
		t.Errorf("diagonal mass not in bins 1/2: %v", sums)
	}
	if sums[2] < sums[1] {
		t.Errorf("bin 2 should dominate (alpha=0.75): %v vs %v", sums[1], sums[2])
	}
}

// TestVoteConservation: total histogram mass equals the sum of gradient
// magnitudes over counted pixels (votes are split, never lost), without
// spatial interpolation.
func TestVoteConservation(t *testing.T) {
	cfg := DefaultConfig()
	img := randomImage(64, 64, 5)
	grid := mustCells(t, img, cfg)
	var got float64
	for _, v := range grid.Hist {
		got += v
	}
	var want float64
	at := func(x, y int) float64 {
		if x < 0 {
			x = 0
		}
		if x > 63 {
			x = 63
		}
		if y < 0 {
			y = 0
		}
		if y > 63 {
			y = 63
		}
		return float64(img.Pix[y*64+x]) / 255
	}
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			gx := at(x+1, y) - at(x-1, y)
			gy := at(x, y+1) - at(x, y-1)
			want += math.Hypot(gx, gy)
		}
	}
	if math.Abs(got-want) > 1e-9*want {
		t.Errorf("vote mass %v, gradient mass %v", got, want)
	}
}

func randomImage(w, h int, seed int64) *imgproc.Gray {
	img := imgproc.NewGray(w, h)
	rng := rand.New(rand.NewSource(seed))
	for i := range img.Pix {
		img.Pix[i] = uint8(rng.Intn(256))
	}
	return img
}

func TestNormalizeBlockNormBounds(t *testing.T) {
	cfg := DefaultConfig()
	img := randomImage(64, 128, 6)
	fm := mustCompute(t, img, cfg)
	for by := 0; by < fm.BlocksY; by++ {
		for bx := 0; bx < fm.BlocksX; bx++ {
			var ss float64
			for _, v := range fm.Block(bx, by) {
				if v < 0 {
					t.Fatalf("negative feature at block (%d,%d)", bx, by)
				}
				// Renormalization after clipping can lift values a
				// little above HysClip; they stay well below 2x.
				if v > 2*cfg.HysClip {
					t.Fatalf("feature %v far exceeds hys clip at block (%d,%d)", v, bx, by)
				}
				ss += v * v
			}
			if n := math.Sqrt(ss); n > 1+1e-9 {
				t.Fatalf("block (%d,%d) norm %v > 1", bx, by, n)
			}
		}
	}
}

// refNormalize is the block map of grid under cfg built one block at a
// time: each block gathered from its cells (clamped at the frame edge in
// the per-cell layout) and normalized by normalizeBlock, the reference the
// four-block normalizer must match bit for bit.
func refNormalize(grid *CellGrid, cfg Config) []float64 {
	bx, by := grid.CellsX-cfg.BlockCells+1, grid.CellsY-cfg.BlockCells+1
	if cfg.Layout == LayoutPerCell {
		bx, by = grid.CellsX, grid.CellsY
	}
	var out []float64
	for y := 0; y < by; y++ {
		for x := 0; x < bx; x++ {
			var b []float64
			for cy := 0; cy < cfg.BlockCells; cy++ {
				for cx := 0; cx < cfg.BlockCells; cx++ {
					b = append(b, grid.At(min(x+cx, grid.CellsX-1), min(y+cy, grid.CellsY-1))...)
				}
			}
			normalizeBlock(b, cfg)
			out = append(out, b...)
		}
	}
	return out
}

// TestNormalizeMatchesNormalizeBlock pins NormalizeInto, which normalizes
// L2 and L2Hys blocks four at a time, to per-block normalizeBlock bit for
// bit: in both layouts and all three norms, on rows of 8 to 12 blocks (so
// BlocksX%4 takes every value), with all-zero blocks, with features
// exactly at HysClip and above it, at workers 1 and 3.
func TestNormalizeMatchesNormalizeBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	grids := map[string]func(cx, cy int) *CellGrid{
		"random": func(cx, cy int) *CellGrid {
			g := &CellGrid{CellsX: cx, CellsY: cy, Bins: 9, Hist: make([]float64, cx*cy*9)}
			for i := range g.Hist {
				if c := i / 9; c%cx < 3 && c/cx < 2 {
					continue // a corner of empty cells: all-zero blocks
				}
				if rng.Intn(4) != 0 {
					g.Hist[i] = rng.Float64() * 40
				}
			}
			return g
		},
		// Every block is the same, so the clips below land exactly on
		// its features.
		"constant": func(cx, cy int) *CellGrid {
			g := &CellGrid{CellsX: cx, CellsY: cy, Bins: 9, Hist: make([]float64, cx*cy*9)}
			for i := range g.Hist {
				g.Hist[i] = float64(i%9*i%9 + 1)
			}
			return g
		},
	}
	for gname, mk := range grids {
		for cx := 9; cx <= 13; cx++ {
			grid := mk(cx, 5)
			for _, layout := range []Layout{LayoutOverlap, LayoutPerCell} {
				for _, norm := range []Norm{L2Hys, L2, L1Sqrt} {
					cfg := DefaultConfig()
					cfg.Layout, cfg.Norm = layout, norm
					clips := []float64{cfg.HysClip}
					if gname == "constant" {
						// The largest and second-largest L2-normalized
						// features: ties at the clip, and features above it.
						l2 := cfg
						l2.Norm = L2
						b := refNormalize(grid, l2)[:cfg.BlockLen()]
						slices.Sort(b)
						b = slices.Compact(b)
						clips = []float64{b[len(b)-1], b[len(b)-2]}
					}
					for _, clip := range clips {
						cfg.HysClip = clip
						want := refNormalize(grid, cfg)
						for _, workers := range []int{1, 3} {
							var fm FeatureMap
							if err := NormalizeInto(grid, cfg, &fm, workers); err != nil {
								t.Fatal(err)
							}
							label := fmt.Sprintf("%s %d cells layout=%v norm=%v clip=%v workers=%d", gname, cx, layout, norm, clip, workers)
							if len(fm.Feat) != len(want) {
								t.Fatalf("%s: %d features, want %d", label, len(fm.Feat), len(want))
							}
							for i := range want {
								if math.Float64bits(fm.Feat[i]) != math.Float64bits(want[i]) {
									t.Fatalf("%s: feat[%d] = %.17g, normalizeBlock %.17g", label, i, fm.Feat[i], want[i])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestNormalizationContrastInvariance: scaling image contrast leaves the
// normalized descriptor (nearly) unchanged — the purpose of block
// normalization.
func TestNormalizationContrastInvariance(t *testing.T) {
	cfg := DefaultConfig()
	img := randomImage(64, 128, 7)
	bright := imgproc.AdjustContrast(imgproc.BoxBlur(img, 1), 0.5, 0)
	base := imgproc.BoxBlur(img, 1)
	d1, err := Descriptor(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Descriptor(bright, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var dot, n1, n2 float64
	for i := range d1 {
		dot += d1[i] * d2[i]
		n1 += d1[i] * d1[i]
		n2 += d2[i] * d2[i]
	}
	cos := dot / math.Sqrt(n1*n2)
	if cos < 0.98 {
		t.Errorf("cosine similarity under contrast halving = %.4f, want > 0.98", cos)
	}
}

func TestLayoutDimensions(t *testing.T) {
	img := randomImage(128, 96, 8) // 16x12 cells
	perCell := DefaultConfig()
	fm1 := mustCompute(t, img, perCell)
	if fm1.BlocksX != 16 || fm1.BlocksY != 12 {
		t.Errorf("per-cell blocks %dx%d, want 16x12", fm1.BlocksX, fm1.BlocksY)
	}
	overlap := DefaultConfig()
	overlap.Layout = LayoutOverlap
	fm2 := mustCompute(t, img, overlap)
	if fm2.BlocksX != 15 || fm2.BlocksY != 11 {
		t.Errorf("overlap blocks %dx%d, want 15x11", fm2.BlocksX, fm2.BlocksY)
	}
	// Interior blocks agree between layouts (clamping only affects edges).
	for by := 0; by < 11; by++ {
		for bx := 0; bx < 15; bx++ {
			b1, b2 := fm1.Block(bx, by), fm2.Block(bx, by)
			for i := range b1 {
				if math.Abs(b1[i]-b2[i]) > 1e-12 {
					t.Fatalf("interior block (%d,%d) differs between layouts", bx, by)
				}
			}
		}
	}
}

func TestWindowExtraction(t *testing.T) {
	img := randomImage(128, 192, 9)
	cfg := DefaultConfig()
	fm := mustCompute(t, img, cfg)
	d := fm.Window(2, 3, 8, 16)
	if len(d) != 4608 {
		t.Fatalf("window length %d, want 4608", len(d))
	}
	// First block of the window equals block (2,3) of the map.
	b := fm.Block(2, 3)
	for i := range b {
		if d[i] != b[i] {
			t.Fatal("window does not start with its anchor block")
		}
	}
	// Out-of-range windows return nil.
	if fm.Window(10, 10, 8, 16) != nil {
		t.Error("overflowing window should be nil")
	}
	// WindowInto matches Window.
	dst := make([]float64, 4608)
	if !fm.WindowInto(dst, 2, 3, 8, 16) {
		t.Fatal("WindowInto failed")
	}
	for i := range d {
		if dst[i] != d[i] {
			t.Fatal("WindowInto differs from Window")
		}
	}
	if fm.WindowInto(dst[:10], 2, 3, 8, 16) {
		t.Error("WindowInto with wrong-size dst should fail")
	}
}

// TestDescriptorMatchesWindowedFrame: the descriptor of a crop equals the
// corresponding window of the full-frame feature map away from clamped
// borders (cell alignment, per-cell layout).
func TestDescriptorMatchesWindowedFrame(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Layout = LayoutOverlap // interior blocks only, avoids edge clamping
	frame := randomImage(256, 256, 10)
	fm := mustCompute(t, frame, cfg)
	// A 64x128 window at cell offset (8, 8), i.e. pixel (64, 64).
	crop := frame.SubImage(geom.XYWH(64, 64, 64, 128))
	cd, err := Descriptor(crop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wd := fm.Window(8, 8, 7, 15)
	if len(cd) != len(wd) {
		t.Fatalf("length mismatch %d vs %d", len(cd), len(wd))
	}
	var maxDiff float64
	for i := range cd {
		d := math.Abs(cd[i] - wd[i])
		if d > maxDiff {
			maxDiff = d
		}
	}
	// The crop's border gradients use replicated borders while the frame
	// sees real neighbours, so edge blocks differ slightly; interior mass
	// dominates. Require close agreement on average.
	var mse float64
	for i := range cd {
		d := cd[i] - wd[i]
		mse += d * d
	}
	mse /= float64(len(cd))
	if mse > 1e-3 {
		t.Errorf("crop/window MSE = %v, want < 1e-3", mse)
	}
}

func TestNormSchemes(t *testing.T) {
	img := randomImage(64, 128, 11)
	for _, n := range []Norm{L2Hys, L2, L1Sqrt} {
		cfg := DefaultConfig()
		cfg.Norm = n
		fm := mustCompute(t, img, cfg)
		for _, v := range fm.Feat {
			if math.IsNaN(v) || v < 0 {
				t.Fatalf("%v produced invalid feature %v", n, v)
			}
		}
	}
}

func TestSqrtGammaChangesFeatures(t *testing.T) {
	img := randomImage(64, 128, 12)
	cfg := DefaultConfig()
	d1, _ := Descriptor(img, cfg)
	cfg.SqrtGamma = true
	d2, _ := Descriptor(img, cfg)
	same := true
	for i := range d1 {
		if d1[i] != d2[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("sqrt gamma had no effect")
	}
}

func TestInterpolateCellsConservesMass(t *testing.T) {
	img := randomImage(64, 64, 13)
	cfg := DefaultConfig()
	cfg.InterpolateCells = true
	grid := mustCells(t, img, cfg)
	var withInterp float64
	for _, v := range grid.Hist {
		withInterp += v
	}
	cfg.InterpolateCells = false
	grid2 := mustCells(t, img, cfg)
	var without float64
	for _, v := range grid2.Hist {
		without += v
	}
	// Spatial interpolation loses the mass that falls off the cell grid at
	// image borders but must never create mass.
	if withInterp > without+1e-9 {
		t.Errorf("interpolation created mass: %v > %v", withInterp, without)
	}
	if withInterp < 0.8*without {
		t.Errorf("interpolation lost too much mass: %v vs %v", withInterp, without)
	}
}

// Property: descriptors are invariant to adding a constant to every pixel
// (gradients see only differences).
func TestBrightnessInvarianceProperty(t *testing.T) {
	cfg := DefaultConfig()
	f := func(seed int64, offs uint8) bool {
		img := randomImage(32, 32, seed)
		// Keep pixel values in a range where +offset does not clip.
		for i := range img.Pix {
			img.Pix[i] = img.Pix[i]/2 + 30
		}
		shifted := img.Clone()
		o := offs % 60
		for i := range shifted.Pix {
			shifted.Pix[i] += o
		}
		d1, err1 := Descriptor(img, cfg)
		d2, err2 := Descriptor(shifted, cfg)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range d1 {
			if math.Abs(d1[i]-d2[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFlipSymmetry(t *testing.T) {
	// Mirroring the image permutes the descriptor but must preserve its
	// total energy (same gradient magnitudes, mirrored orientations).
	cfg := DefaultConfig()
	img := randomImage(64, 128, 14)
	d1, _ := Descriptor(img, cfg)
	d2, _ := Descriptor(imgproc.FlipH(img), cfg)
	e := func(d []float64) float64 {
		var s float64
		for _, v := range d {
			s += v * v
		}
		return s
	}
	e1, e2 := e(d1), e(d2)
	if math.Abs(e1-e2)/e1 > 0.02 {
		t.Errorf("flip changed descriptor energy: %v vs %v", e1, e2)
	}
}

func TestStringers(t *testing.T) {
	if LayoutOverlap.String() != "overlap" || LayoutPerCell.String() != "percell" {
		t.Error("Layout strings wrong")
	}
	if L2Hys.String() != "l2hys" || L2.String() != "l2" || L1Sqrt.String() != "l1sqrt" {
		t.Error("Norm strings wrong")
	}
	if Layout(9).String() == "" || Norm(9).String() == "" {
		t.Error("unknown values should still stringify")
	}
}
