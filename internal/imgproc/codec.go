package imgproc

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// This file implements the netpbm codecs (PGM for grayscale frames, PPM for
// annotated color output). Binary (P5/P6) and ASCII (P2/P3) variants are
// both readable; writers emit the binary forms.

// WritePGM writes g to w in binary PGM (P5) format.
func WritePGM(w io.Writer, g *Gray) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P5\n%d %d\n255\n", g.W, g.H); err != nil {
		return err
	}
	if _, err := bw.Write(g.Pix); err != nil {
		return err
	}
	return bw.Flush()
}

// WritePGMFile writes g to the named file in binary PGM format.
func WritePGMFile(path string, g *Gray) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WritePGM(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WritePPM writes c to w in binary PPM (P6) format.
func WritePPM(w io.Writer, c *RGB) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P6\n%d %d\n255\n", c.W, c.H); err != nil {
		return err
	}
	if _, err := bw.Write(c.Pix); err != nil {
		return err
	}
	return bw.Flush()
}

// WritePPMFile writes c to the named file in binary PPM format.
func WritePPMFile(path string, c *RGB) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WritePPM(f, c); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadPGM reads a PGM image (P2 or P5) from r. Images with maxval > 255 are
// rejected.
func ReadPGM(r io.Reader) (*Gray, error) {
	br := bufio.NewReader(r)
	magic, err := pnmToken(br)
	if err != nil {
		return nil, fmt.Errorf("imgproc: reading PGM magic: %w", err)
	}
	if magic != "P5" && magic != "P2" {
		return nil, fmt.Errorf("imgproc: not a PGM file (magic %q)", magic)
	}
	w, h, maxv, err := pnmHeader(br)
	if err != nil {
		return nil, err
	}
	g := &Gray{W: w, H: h}
	if magic == "P5" {
		if g.Pix, err = readBinarySamples(br, w*h); err != nil {
			return nil, fmt.Errorf("imgproc: short PGM pixel data: %w", err)
		}
		if err := rescaleSamples(g.Pix, maxv); err != nil {
			return nil, fmt.Errorf("imgproc: PGM pixel data: %w", err)
		}
	} else {
		g.Pix = sampleBuffer(w * h)
		for i := 0; i < w*h; i++ {
			v, err := pnmInt(br)
			if err != nil {
				return nil, fmt.Errorf("imgproc: PGM pixel %d: %w", i, err)
			}
			if v > maxv {
				return nil, fmt.Errorf("imgproc: PGM pixel %d: sample %d exceeds maxval %d", i, v, maxv)
			}
			g.Pix = append(growSamples(g.Pix, w*h), uint8(v*255/maxv))
		}
	}
	return g, nil
}

// ReadPGMFile reads the named PGM file.
func ReadPGMFile(path string) (*Gray, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadPGM(f)
}

// ReadPPM reads a PPM image (P3 or P6) from r. Images with maxval > 255 are
// rejected.
func ReadPPM(r io.Reader) (*RGB, error) {
	br := bufio.NewReader(r)
	magic, err := pnmToken(br)
	if err != nil {
		return nil, fmt.Errorf("imgproc: reading PPM magic: %w", err)
	}
	if magic != "P6" && magic != "P3" {
		return nil, fmt.Errorf("imgproc: not a PPM file (magic %q)", magic)
	}
	w, h, maxv, err := pnmHeader(br)
	if err != nil {
		return nil, err
	}
	c := &RGB{W: w, H: h}
	if magic == "P6" {
		if c.Pix, err = readBinarySamples(br, 3*w*h); err != nil {
			return nil, fmt.Errorf("imgproc: short PPM pixel data: %w", err)
		}
		if err := rescaleSamples(c.Pix, maxv); err != nil {
			return nil, fmt.Errorf("imgproc: PPM pixel data: %w", err)
		}
	} else {
		c.Pix = sampleBuffer(3 * w * h)
		for i := 0; i < 3*w*h; i++ {
			v, err := pnmInt(br)
			if err != nil {
				return nil, fmt.Errorf("imgproc: PPM sample %d: %w", i, err)
			}
			if v > maxv {
				return nil, fmt.Errorf("imgproc: PPM sample %d: value %d exceeds maxval %d", i, v, maxv)
			}
			c.Pix = append(growSamples(c.Pix, 3*w*h), uint8(v*255/maxv))
		}
	}
	return c, nil
}

// sampleChunk is the most a decoder allocates for samples it has not read
// yet: a header claiming 64 Mpx then costs what the stream delivers, not
// what it claims. A served 128x256 crop fits in one chunk.
const sampleChunk = 32 << 10

// sampleBuffer is an empty buffer for n samples, sized for at most
// sampleChunk of them, so a frame of up to sampleChunk samples decodes in
// one allocation.
func sampleBuffer(n int) []uint8 { return make([]uint8, 0, min(n, sampleChunk)) }

// growSamples returns pix with room for another sample: a full buffer is
// copied into one twice its size, capped at the n samples the frame holds.
func growSamples(pix []uint8, n int) []uint8 {
	if len(pix) < cap(pix) {
		return pix
	}
	grown := make([]uint8, len(pix), min(n, 2*cap(pix)))
	copy(grown, pix)
	return grown
}

// readBinarySamples reads n binary samples from br into a buffer that grows
// as they arrive. Like io.ReadFull on n bytes, it fails with io.EOF when
// no sample arrives and io.ErrUnexpectedEOF when some but not all do.
func readBinarySamples(br *bufio.Reader, n int) ([]uint8, error) {
	pix := sampleBuffer(n)
	for len(pix) < n {
		pix = growSamples(pix, n)
		k, err := io.ReadFull(br, pix[len(pix):cap(pix)])
		pix = pix[:len(pix)+k]
		if err == io.EOF && len(pix) > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
	}
	return pix, nil
}

// rescaleSamples maps binary samples from [0, maxv] onto [0, 255] in place.
// Binary bodies with samples above the declared maxval are corrupt per the
// netpbm spec and rejected — silently keeping them would brighten or wrap
// the frame and skew every gradient downstream.
func rescaleSamples(pix []uint8, maxv int) error {
	if maxv == 255 {
		return nil
	}
	for i, v := range pix {
		if int(v) > maxv {
			return fmt.Errorf("sample %d: value %d exceeds maxval %d", i, v, maxv)
		}
		pix[i] = uint8(int(v) * 255 / maxv)
	}
	return nil
}

// pnmHeader parses the width, height and maxval triple common to PGM/PPM.
func pnmHeader(br *bufio.Reader) (w, h, maxv int, err error) {
	if w, err = pnmInt(br); err != nil {
		return 0, 0, 0, fmt.Errorf("imgproc: PNM width: %w", err)
	}
	if h, err = pnmInt(br); err != nil {
		return 0, 0, 0, fmt.Errorf("imgproc: PNM height: %w", err)
	}
	if maxv, err = pnmInt(br); err != nil {
		return 0, 0, 0, fmt.Errorf("imgproc: PNM maxval: %w", err)
	}
	if w <= 0 || h <= 0 {
		return 0, 0, 0, fmt.Errorf("imgproc: invalid PNM size %dx%d", w, h)
	}
	if w > 1<<16 || h > 1<<16 {
		return 0, 0, 0, fmt.Errorf("imgproc: PNM size %dx%d too large", w, h)
	}
	// Cap the total pixel count as well: the per-dimension limit alone still
	// admits a 4 GiB allocation from a 12-byte header (65536 x 65536), which
	// a corrupt or hostile stream could use to take the process down before
	// a single pixel is read.
	if w*h > maxPNMPixels {
		return 0, 0, 0, fmt.Errorf("imgproc: PNM size %dx%d exceeds %d-pixel limit", w, h, maxPNMPixels)
	}
	if maxv <= 0 || maxv > 255 {
		return 0, 0, 0, fmt.Errorf("imgproc: unsupported PNM maxval %d", maxv)
	}
	return w, h, maxv, nil
}

// maxPNMPixels bounds decoder allocations (64 Mpx ≈ 8K video); headers
// claiming more are rejected as corrupt.
const maxPNMPixels = 1 << 26

// pnmToken reads the next whitespace-delimited token, skipping '#' comments.
// It consumes exactly one byte of whitespace after the token, which is the
// netpbm rule separating the header from binary pixel data.
func pnmToken(br *bufio.Reader) (string, error) {
	var tok []byte
	for {
		b, err := br.ReadByte()
		if err != nil {
			if err == io.EOF && len(tok) > 0 {
				return string(tok), nil
			}
			return "", err
		}
		switch {
		case b == '#' && len(tok) == 0:
			if _, err := br.ReadString('\n'); err != nil && err != io.EOF {
				return "", err
			}
		case b == ' ' || b == '\t' || b == '\n' || b == '\r':
			if len(tok) > 0 {
				return string(tok), nil
			}
		default:
			tok = append(tok, b)
		}
	}
}

// pnmInt reads the next token and parses it as a non-negative integer.
func pnmInt(br *bufio.Reader) (int, error) {
	tok, err := pnmToken(br)
	if err != nil {
		return 0, err
	}
	v := 0
	if len(tok) == 0 {
		return 0, fmt.Errorf("empty token")
	}
	for _, c := range tok {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("invalid integer %q", tok)
		}
		v = v*10 + int(c-'0')
		if v > 1<<30 {
			return 0, fmt.Errorf("integer %q overflows", tok)
		}
	}
	return v, nil
}
