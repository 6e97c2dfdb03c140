package imgproc

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// FuzzDecode throws arbitrary bytes at both netpbm decoders. The decoders
// feed frames straight into the detection pipeline, so the invariant under
// fuzzing is total: any input either decodes into a self-consistent image
// (header matches buffer, bounded size) or returns an error — it must never
// panic or hand back an image whose header lies about its pixel buffer.
//
// The seed corpus doubles as the regression suite for the codec hardening:
// `go test` runs every f.Add case even without -fuzz.
func FuzzDecode(f *testing.F) {
	// Valid minimal images, both binary and ASCII.
	f.Add([]byte("P5\n2 2\n255\n\x00\x7f\x80\xff"))
	f.Add([]byte("P2\n# comment\n3 1\n255\n0 128 255\n"))
	f.Add([]byte("P6\n1 2\n255\n\x01\x02\x03\x04\x05\x06"))
	f.Add([]byte("P3\n2 1\n255\n255 0 0  0 255 0\n"))
	// Sub-255 maxval: binary samples must be rescaled, not passed through.
	f.Add([]byte("P5\n2 1\n15\n\x00\x0f"))
	f.Add([]byte("P2\n2 1\n15\n0 15\n"))
	// Truncated mid-header and mid-body (stream cut during a frame).
	f.Add([]byte("P5\n128 "))
	f.Add([]byte("P5\n4 4\n255\nshort"))
	f.Add([]byte("P6\n2 2\n255\n\x01\x02\x03"))
	// Header lies: dimensions that pass per-axis checks but multiply into a
	// multi-gigabyte allocation.
	f.Add([]byte("P5\n65535 65535\n255\n"))
	f.Add([]byte("P6\n65535 65535\n255\n"))
	// Samples above the declared maxval, ASCII and binary.
	f.Add([]byte("P2\n2 1\n15\n3 16\n"))
	f.Add([]byte("P5\n2 1\n15\n\x03\x10"))
	// Corrupted magic / maxval / negative-looking tokens.
	f.Add([]byte("P7\n2 2\n255\n\x00\x00\x00\x00"))
	f.Add([]byte("P5\n2 2\n0\n\x00\x00\x00\x00"))
	f.Add([]byte("P5\n-2 2\n255\n\x00\x00\x00\x00"))
	f.Add([]byte("P5\n2 2\n70000\n"))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, data []byte) {
		if g, err := ReadPGM(bytes.NewReader(data)); err == nil {
			checkGray(t, g)
		}
		if c, err := ReadPPM(bytes.NewReader(data)); err == nil {
			checkRGB(t, c)
		}
	})
}

func checkGray(t *testing.T, g *Gray) {
	t.Helper()
	if g.W <= 0 || g.H <= 0 || g.W*g.H > maxPNMPixels {
		t.Fatalf("decoded Gray has out-of-bounds size %dx%d", g.W, g.H)
	}
	if len(g.Pix) != g.W*g.H {
		t.Fatalf("decoded Gray %dx%d carries %d pixels", g.W, g.H, len(g.Pix))
	}
}

func checkRGB(t *testing.T, c *RGB) {
	t.Helper()
	if c.W <= 0 || c.H <= 0 || c.W*c.H > maxPNMPixels {
		t.Fatalf("decoded RGB has out-of-bounds size %dx%d", c.W, c.H)
	}
	if len(c.Pix) != 3*c.W*c.H {
		t.Fatalf("decoded RGB %dx%d carries %d samples", c.W, c.H, len(c.Pix))
	}
}

// TestDecodeRejectsHugeAllocation pins the total-pixel cap: both dimensions
// pass the per-axis limit, but decoding must fail before attempting the
// 4 GiB allocation the header asks for.
func TestDecodeRejectsHugeAllocation(t *testing.T) {
	huge := "65535 65535\n255\n"
	if _, err := ReadPGM(strings.NewReader("P5\n" + huge)); err == nil {
		t.Error("ReadPGM accepted a 4 GiB header")
	}
	if _, err := ReadPPM(strings.NewReader("P6\n" + huge)); err == nil {
		t.Error("ReadPPM accepted a 12 GiB header")
	}
}

// TestDecodeRejectsSamplesAboveMaxval: samples above the declared maxval are
// corrupt and must error out instead of silently wrapping modulo 256.
func TestDecodeRejectsSamplesAboveMaxval(t *testing.T) {
	cases := []struct {
		name, src string
		pgm       bool
	}{
		{"ascii PGM", "P2\n2 1\n15\n3 16\n", true},
		{"binary PGM", "P5\n2 1\n15\n\x03\x10", true},
		{"ascii PPM", "P3\n1 1\n15\n3 16 2\n", false},
		{"binary PPM", "P6\n1 1\n15\n\x03\x10\x02", false},
	}
	for _, c := range cases {
		var err error
		if c.pgm {
			_, err = ReadPGM(strings.NewReader(c.src))
		} else {
			_, err = ReadPPM(strings.NewReader(c.src))
		}
		if err == nil {
			t.Errorf("%s: sample above maxval decoded without error", c.name)
		}
	}
}

// TestDecodeRescalesBinaryMaxval: binary bodies with maxv < 255 carry
// samples in [0, maxv] and must be stretched to full range, matching the
// ASCII path (previously the binary path ignored maxval entirely, leaving
// dark frames that depressed every gradient magnitude downstream).
func TestDecodeRescalesBinaryMaxval(t *testing.T) {
	g, err := ReadPGM(strings.NewReader("P5\n3 1\n15\n\x00\x08\x0f"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint8{0, 8 * 255 / 15, 255}; !bytes.Equal(g.Pix, want) {
		t.Errorf("rescaled binary PGM pixels = %v, want %v", g.Pix, want)
	}
	c, err := ReadPPM(strings.NewReader("P6\n1 1\n3\n\x00\x01\x03"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint8{0, 85, 255}; !bytes.Equal(c.Pix, want) {
		t.Errorf("rescaled binary PPM samples = %v, want %v", c.Pix, want)
	}
}

// allocatedBytes is the fewest bytes f allocated over three runs: the
// fewest, so that a stray allocation elsewhere in the process cannot fail
// a bound that f itself keeps.
func allocatedBytes(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// decodeSamples decodes src with ReadPGM or ReadPPM, by its magic.
func decodeSamples(src []byte) ([]uint8, error) {
	if src[1] == '5' || src[1] == '2' {
		g, err := ReadPGM(bytes.NewReader(src))
		if err != nil {
			return nil, err
		}
		return g.Pix, nil
	}
	c, err := ReadPPM(bytes.NewReader(src))
	if err != nil {
		return nil, err
	}
	return c.Pix, nil
}

// TestDecodeAllocatesWhatArrives: a header that claims 64 Mpx but is
// followed by no samples must cost the decoder under 64 KiB, not the 64 MB
// the header asks for, in all four formats.
func TestDecodeAllocatesWhatArrives(t *testing.T) {
	for _, src := range []string{"P5\n8192 8192\n255\n", "P2\n8192 8192\n255\n", "P6\n4096 4096\n255\n", "P3\n4096 4096\n255\n"} {
		var err error
		if n := allocatedBytes(func() { _, err = decodeSamples([]byte(src)) }); n >= 64<<10 {
			t.Errorf("%q: decoding allocated %d B, want < 64 KiB", src, n)
		}
		if err == nil {
			t.Errorf("%q decoded without samples", src)
		}
	}
}

// TestDecodeCropInOneAllocation: a served 128x256 crop fits in
// sampleChunk, so its pixels land in one buffer of exactly W*H bytes and
// nothing else the size of a frame is allocated.
func TestDecodeCropInOneAllocation(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePGM(&buf, NewGray(128, 256)); err != nil {
		t.Fatal(err)
	}
	var pix []uint8
	n := allocatedBytes(func() { pix, _ = decodeSamples(buf.Bytes()) })
	if cap(pix) != 128*256 || n >= 128*256+8<<10 {
		t.Errorf("a 128x256 crop decoded into cap %d, allocating %d B; want one %d B buffer and < 8 KiB more", cap(pix), n, 128*256)
	}
}

// TestDecodeAcrossChunks decodes frames of several chunks, so the sample
// buffer grows while they arrive, in all four formats: the samples must be
// the ones written, in a buffer of exactly the frame's size, and a frame
// cut short after a whole chunk must fail as io.ReadFull would.
func TestDecodeAcrossChunks(t *testing.T) {
	const w, h = 300, 250
	rng := rand.New(rand.NewSource(3))
	for _, magic := range []string{"P5", "P2", "P6", "P3"} {
		pix := make([]uint8, w*h)
		if magic == "P6" || magic == "P3" {
			pix = make([]uint8, 3*w*h)
		}
		var src bytes.Buffer
		fmt.Fprintf(&src, "%s\n%d %d\n255\n", magic, w, h)
		for i := range pix {
			pix[i] = uint8(rng.Intn(256))
			if magic == "P2" || magic == "P3" {
				fmt.Fprintf(&src, "%d\n", pix[i])
			}
		}
		if magic == "P5" || magic == "P6" {
			src.Write(pix)
		}
		got, err := decodeSamples(src.Bytes())
		if err != nil || !bytes.Equal(got, pix) || cap(got) != len(pix) {
			t.Errorf("%s: decoded samples differ from the written ones (cap %d, error %v)", magic, cap(got), err)
		}
		if magic == "P5" {
			_, err := decodeSamples(src.Bytes()[:src.Len()-len(pix)+sampleChunk])
			if want := "imgproc: short PGM pixel data: unexpected EOF"; err == nil || err.Error() != want {
				t.Errorf("frame cut after one chunk: error %v, want %q", err, want)
			}
		}
	}
}
