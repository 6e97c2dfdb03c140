package imgproc

import (
	"bytes"
	"math/rand"
	"os"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func TestNewGray(t *testing.T) {
	g := NewGray(4, 3)
	if g.W != 4 || g.H != 3 || len(g.Pix) != 12 {
		t.Fatalf("unexpected image: %dx%d, %d pixels", g.W, g.H, len(g.Pix))
	}
	for _, v := range g.Pix {
		if v != 0 {
			t.Fatal("new image not zeroed")
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NewGray(0, 1) should panic")
		}
	}()
	NewGray(0, 1)
}

func TestGrayAtClampsBorders(t *testing.T) {
	g := NewGray(3, 3)
	g.Set(0, 0, 10)
	g.Set(2, 2, 20)
	if g.At(-5, -5) != 10 {
		t.Errorf("top-left clamp: got %d", g.At(-5, -5))
	}
	if g.At(100, 100) != 20 {
		t.Errorf("bottom-right clamp: got %d", g.At(100, 100))
	}
}

func TestGraySetIgnoresOutside(t *testing.T) {
	g := NewGray(2, 2)
	g.Set(-1, 0, 9)
	g.Set(0, 5, 9)
	for _, v := range g.Pix {
		if v != 0 {
			t.Fatal("out-of-bounds Set modified the image")
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := NewGray(2, 2)
	c := g.Clone()
	c.Set(0, 0, 99)
	if g.At(0, 0) != 0 {
		t.Error("Clone shares pixels with the original")
	}
}

func TestSubImage(t *testing.T) {
	g := NewGray(10, 10)
	for y := 0; y < 10; y++ {
		for x := 0; x < 10; x++ {
			g.Set(x, y, uint8(y*10+x))
		}
	}
	s := g.SubImage(geom.R(2, 3, 5, 7))
	if s.W != 3 || s.H != 4 {
		t.Fatalf("sub size %dx%d, want 3x4", s.W, s.H)
	}
	if s.At(0, 0) != 32 || s.At(2, 3) != 64 {
		t.Errorf("sub pixels wrong: %d, %d", s.At(0, 0), s.At(2, 3))
	}
	// Clipping.
	if s := g.SubImage(geom.R(8, 8, 20, 20)); s.W != 2 || s.H != 2 {
		t.Errorf("clipped sub size %dx%d, want 2x2", s.W, s.H)
	}
	if s := g.SubImage(geom.R(20, 20, 30, 30)); s != nil {
		t.Error("fully outside sub image should be nil")
	}
}

func TestFloatGrayRoundTrip(t *testing.T) {
	g := randomGray(16, 16, 3)
	back := ToGray(ToFloat(g))
	if !bytes.Equal(back.Pix, g.Pix) {
		t.Error("Gray -> Float -> Gray is not the identity")
	}
}

func TestPGMRoundTrip(t *testing.T) {
	g := randomGray(7, 5, 4)
	var buf bytes.Buffer
	if err := WritePGM(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != g.W || got.H != g.H || !bytes.Equal(got.Pix, g.Pix) {
		t.Error("PGM round trip mismatch")
	}
}

func TestPGMASCII(t *testing.T) {
	src := "P2\n# a comment\n3 2\n255\n0 128 255\n10 20 30\n"
	g, err := ReadPGM(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	want := []uint8{0, 128, 255, 10, 20, 30}
	if !bytes.Equal(g.Pix, want) {
		t.Errorf("P2 pixels = %v, want %v", g.Pix, want)
	}
}

func TestPGMErrors(t *testing.T) {
	cases := []string{
		"",                       // empty
		"P6\n1 1\n255\nx",        // wrong magic for PGM
		"P5\n0 5\n255\n",         // zero width
		"P5\n2 2\n70000\n",       // maxval too large
		"P5\n2 2\n255\n\x00",     // short pixel data
		"P2\n2 1\n255\n12 bad\n", // non-numeric ASCII sample
	}
	for _, src := range cases {
		if _, err := ReadPGM(strings.NewReader(src)); err == nil {
			t.Errorf("ReadPGM(%q) succeeded, want error", src)
		}
	}
}

func TestPPMRoundTrip(t *testing.T) {
	c := NewRGB(4, 3)
	rng := rand.New(rand.NewSource(5))
	for i := range c.Pix {
		c.Pix[i] = uint8(rng.Intn(256))
	}
	var buf bytes.Buffer
	if err := WritePPM(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPPM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != c.W || got.H != c.H || !bytes.Equal(got.Pix, c.Pix) {
		t.Error("PPM round trip mismatch")
	}
}

func TestRGBDrawRect(t *testing.T) {
	c := NewRGB(10, 10)
	c.DrawRect(geom.R(2, 2, 8, 8), 255, 0, 0, 1)
	if r, _, _ := c.At(2, 2); r != 255 {
		t.Error("corner not drawn")
	}
	if r, _, _ := c.At(4, 4); r != 0 {
		t.Error("interior should not be filled")
	}
	if r, _, _ := c.At(7, 2); r != 255 {
		t.Error("top edge not drawn to the far corner")
	}
}

func TestFromGray(t *testing.T) {
	g := NewGray(2, 1)
	g.Set(0, 0, 7)
	g.Set(1, 0, 250)
	c := FromGray(g)
	if r, gg, b := c.At(0, 0); r != 7 || gg != 7 || b != 7 {
		t.Errorf("FromGray pixel = %d,%d,%d", r, gg, b)
	}
}

// Property: PGM round trip is exact for arbitrary images.
func TestPGMRoundTripProperty(t *testing.T) {
	f := func(seed int64, w8, h8 uint8) bool {
		w, h := int(w8%32)+1, int(h8%32)+1
		g := randomGray(w, h, seed)
		var buf bytes.Buffer
		if err := WritePGM(&buf, g); err != nil {
			return false
		}
		got, err := ReadPGM(&buf)
		return err == nil && got.W == w && got.H == h && bytes.Equal(got.Pix, g.Pix)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPPMASCII(t *testing.T) {
	src := "P3\n# comment\n2 1\n255\n255 0 0  0 255 0\n"
	c, err := ReadPPM(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if r, g, b := c.At(0, 0); r != 255 || g != 0 || b != 0 {
		t.Errorf("pixel 0 = %d,%d,%d", r, g, b)
	}
	if r, g, b := c.At(1, 0); r != 0 || g != 255 || b != 0 {
		t.Errorf("pixel 1 = %d,%d,%d", r, g, b)
	}
}

func TestPPMErrors(t *testing.T) {
	cases := []string{
		"",
		"P5\n1 1\n255\nx",     // PGM magic for PPM reader
		"P6\n0 1\n255\n",      // zero width
		"P6\n1 1\n999\n",      // maxval too large
		"P6\n2 2\n255\n\x00",  // short data
		"P3\n1 1\n255\nbad\n", // non-numeric sample
	}
	for _, src := range cases {
		if _, err := ReadPPM(strings.NewReader(src)); err == nil {
			t.Errorf("ReadPPM(%q) succeeded, want error", src)
		}
	}
}

func TestPGMFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/img.pgm"
	g := randomGray(9, 7, 77)
	if err := WritePGMFile(path, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPGMFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Pix, g.Pix) {
		t.Error("file round trip mismatch")
	}
	if _, err := ReadPGMFile(dir + "/missing.pgm"); err == nil {
		t.Error("missing file should error")
	}
}

func TestPPMFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/img.ppm"
	c := NewRGB(3, 2)
	for i := range c.Pix {
		c.Pix[i] = uint8(i * 11)
	}
	if err := WritePPMFile(path, c); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := ReadPPM(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Pix, c.Pix) {
		t.Error("PPM file round trip mismatch")
	}
}
