package scaler

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/featpyr"
	"repro/internal/hog"
	"repro/internal/hw/hogpipe"
	"repro/internal/imgproc"
)

func nativeMap(t *testing.T, w, h int, seed int64) *hogpipe.Result {
	t.Helper()
	img := imgproc.NewGray(w, h)
	rng := rand.New(rand.NewSource(seed))
	for i := range img.Pix {
		img.Pix[i] = uint8(rng.Intn(256))
	}
	img = imgproc.BoxBlur(img, 1)
	res, _, err := hogpipe.RunFrame(img, hogpipe.DefaultConfig(), 125e6)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.Step = 1
	if err := bad.Validate(); err == nil {
		t.Error("unit step should fail")
	}
	bad = DefaultConfig()
	bad.NumScales = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero scales should fail")
	}
	bad = DefaultConfig()
	bad.MinBlocksX = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero min grid should fail")
	}
}

func TestBuildTwoScaleChain(t *testing.T) {
	native := nativeMap(t, 256, 256, 1) // 32x32 blocks
	cfg := DefaultConfig()
	ch, err := Build(native, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Stages) != 1 {
		t.Fatalf("two-scale chain has %d stages, want 1", len(ch.Stages))
	}
	s := ch.Stages[0]
	if s.Out.BlocksX != 29 || s.Out.BlocksY != 29 { // 32/1.1 rounds to 29
		t.Errorf("stage grid %dx%d, want 29x29", s.Out.BlocksX, s.Out.BlocksY)
	}
	if math.Abs(s.Scale-1.1) > 1e-12 {
		t.Errorf("stage scale %v, want 1.1", s.Scale)
	}
	if s.Cycles != int64(29*29) {
		t.Errorf("stage cycles %d, want %d", s.Cycles, 29*29)
	}
	levels := ch.Levels()
	if len(levels) != 2 || levels[0].Scale != 1 {
		t.Errorf("levels wrong: %d entries", len(levels))
	}
	if ch.TotalCycles() != s.Cycles {
		t.Error("TotalCycles mismatch")
	}
}

func TestChainStopsAtWindow(t *testing.T) {
	native := nativeMap(t, 128, 192, 2) // 16x24 blocks
	cfg := Config{Step: 2, NumScales: 10, MinBlocksX: 8, MinBlocksY: 16}
	ch, err := Build(native, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 16x24 -> 8x12 < window height: chain must stop at 0 stages.
	if len(ch.Stages) != 0 {
		t.Errorf("chain should stop before violating the window, got %d stages", len(ch.Stages))
	}
}

// TestChainMatchesFixedScaler: the chain stage must agree with applying the
// fixed scaler directly (same arithmetic path).
func TestChainMatchesFixedScaler(t *testing.T) {
	native := nativeMap(t, 256, 384, 3)
	cfg := DefaultConfig()
	ch, err := Build(native, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Stages) == 0 {
		t.Fatal("no stages built")
	}
	s := ch.Stages[0]

	fs := featpyr.NewFixedScaler()
	ref, _, err := fs.ScaleMap(toFloatMap(native), s.Out.BlocksX, s.Out.BlocksY)
	if err != nil {
		t.Fatal(err)
	}
	refQ := fromFloatMap(ref, native.FeatFrac)
	for i := range s.Out.Feat {
		if s.Out.Feat[i] != refQ.Feat[i] {
			t.Fatalf("stage output differs from direct fixed scaler at %d: %d vs %d",
				i, s.Out.Feat[i], refQ.Feat[i])
		}
	}
}

// TestChainApproximatesFloatPyramid: the chained fixed-point levels must
// track the float feature pyramid.
func TestChainApproximatesFloatPyramid(t *testing.T) {
	native := nativeMap(t, 256, 384, 4)
	cfg := Config{Step: 1.3, NumScales: 3, MinBlocksX: 8, MinBlocksY: 16}
	ch, err := Build(native, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Stages) < 2 {
		t.Fatalf("want 2 stages, got %d", len(ch.Stages))
	}
	floatBase := toFloatMap(native)
	var p featpyr.Pyramid
	if err := p.BuildChained(context.Background(), floatBase, 1.3, 8, 16, 3, featpyr.ScaleConfig{}, 1); err != nil {
		t.Fatal(err)
	}
	for i, s := range ch.Stages {
		ref := p.Levels[i+1].Map
		if ref.BlocksX != s.Out.BlocksX || ref.BlocksY != s.Out.BlocksY {
			t.Fatalf("stage %d grid %dx%d vs float %dx%d", i,
				s.Out.BlocksX, s.Out.BlocksY, ref.BlocksX, ref.BlocksY)
		}
		q := toFloatMap(s.Out)
		var maxErr float64
		for j := range q.Feat {
			if e := math.Abs(q.Feat[j] - ref.Feat[j]); e > maxErr {
				maxErr = e
			}
		}
		if maxErr > 0.03 {
			t.Errorf("stage %d max error vs float pyramid %.4f", i, maxErr)
		}
	}
}

func TestQuantizationHelpersRoundTrip(t *testing.T) {
	native := nativeMap(t, 64, 128, 5)
	fm := toFloatMap(native)
	back := fromFloatMap(fm, native.FeatFrac)
	for i := range native.Feat {
		if back.Feat[i] != native.Feat[i] {
			t.Fatalf("quantization round trip broke at %d: %d vs %d",
				i, back.Feat[i], native.Feat[i])
		}
	}
}

func TestStageStatsPopulated(t *testing.T) {
	native := nativeMap(t, 256, 256, 6)
	ch, err := Build(native, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := ch.Stages[0]
	if s.Stats.OutputBlocks != s.Out.BlocksX*s.Out.BlocksY {
		t.Error("stats output blocks wrong")
	}
	if s.Stats.MaxAdders <= 0 {
		t.Error("adder cost not tracked")
	}
}

func TestFloatMapConversionUsesConfigLayout(t *testing.T) {
	// toFloatMap must produce maps compatible with the software feature
	// type (dims and lengths).
	native := nativeMap(t, 64, 128, 7)
	fm := toFloatMap(native)
	var _ *hog.FeatureMap = fm
	if fm.BlocksX != 8 || fm.BlocksY != 16 || fm.BlockLen != 36 {
		t.Errorf("converted dims %dx%dx%d", fm.BlocksX, fm.BlocksY, fm.BlockLen)
	}
}
