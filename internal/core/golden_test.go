package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/featpyr"
	"repro/internal/geom"
	"repro/internal/hog"
	"repro/internal/svm"
)

// -update regenerates the committed golden detections. Run it after an
// intentional change to detector numerics and review the diff: every
// changed line is a changed detection on the pinned clip.
var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

const goldenPath = "testdata/golden_detections.txt"

// goldenModes are the pyramid modes the fixture pins: all of them. Each
// mode has its own expected detections and level score maps (the modes
// differ by design); within a mode the results must be bit-identical
// across worker counts and cascade on/off.
var goldenModes = []PyramidMode{ImagePyramid, FeaturePyramid, FeaturePyramidChained, FeaturePyramidFixed, OctavePyramid}

// goldenSequence renders the pinned synthetic clip. The generator seed is
// fixed and independent of the shared training seed, so the clip never
// shifts when unrelated tests reorder RNG draws.
func goldenSequence(t *testing.T) *dataset.Sequence {
	t.Helper()
	seq, err := dataset.New(4242).MakeSequence(dataset.SequenceConfig{
		W: 320, H: 240, Frames: 3, Pedestrians: 2, FPS: 10,
		ApproachRate: 0.08, WalkSpeedPx: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// goldenKey identifies one (mode, frame) detection list in the fixture.
func goldenKey(mode PyramidMode, frame int) string {
	return fmt.Sprintf("%s/%d", mode, frame)
}

// levelKey identifies one level's score-map digest in the fixture.
func levelKey(mode PyramidMode, frame, level int) string {
	return fmt.Sprintf("%s/%d/L%d", mode, frame, level)
}

// goldenSet is one run of the fixture: the detections of every (mode,
// frame) and the digest of every scanned level's score map.
type goldenSet struct {
	dets    map[string][]eval.Detection
	digests map[string]string // levelKey -> "<w>x<h> <sha256>"
}

// mapDigest renders a level's score map as "<w>x<h> <sha256>", the hash
// taken over the grid size and every score's Float64bits. Detections pin
// only the windows above threshold, most of them on level 0; the digests
// pin every window of every level, so a last-bit change anywhere in the
// pyramid shows up here.
func mapDigest(sm *ScoreMap) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range []uint64{uint64(sm.W), uint64(sm.H)} {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, v := range sm.Scores {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%dx%d %x", sm.W, sm.H, h.Sum(nil))
}

// formatGoldenLine renders one detection. The score uses hexadecimal
// floating point, which round-trips float64 exactly: the fixture pins
// bits, not decimals.
func formatGoldenLine(key string, d eval.Detection) string {
	return fmt.Sprintf("%s %d %d %d %d %s", key,
		d.Box.Min.X, d.Box.Min.Y, d.Box.W(), d.Box.H(),
		strconv.FormatFloat(d.Score, 'x', -1, 64))
}

// readGolden parses the committed fixture into per-key detection lists and
// level digests.
func readGolden(t *testing.T) goldenSet {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("open golden fixture (regenerate with -update): %v", err)
	}
	defer f.Close()
	out := goldenSet{dets: make(map[string][]eval.Detection), digests: make(map[string]string)}
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) == 3 && strings.Contains(fields[0], "/L") {
			out.digests[fields[0]] = fields[1] + " " + fields[2]
			continue
		}
		if len(fields) != 6 {
			t.Fatalf("%s:%d: want 6 fields, got %q", goldenPath, line, text)
		}
		var vals [4]int
		for i := 0; i < 4; i++ {
			v, err := strconv.Atoi(fields[i+1])
			if err != nil {
				t.Fatalf("%s:%d: %v", goldenPath, line, err)
			}
			vals[i] = v
		}
		score, err := strconv.ParseFloat(fields[5], 64)
		if err != nil {
			t.Fatalf("%s:%d: %v", goldenPath, line, err)
		}
		out.dets[fields[0]] = append(out.dets[fields[0]], eval.Detection{
			Box:   geom.XYWH(vals[0], vals[1], vals[2], vals[3]),
			Score: score,
		})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// writeGolden rewrites the fixture from freshly computed detections and
// level digests.
func writeGolden(t *testing.T, got goldenSet) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("# Golden end-to-end detections for the pinned synthetic clip\n")
	b.WriteString("# (dataset seed 4242, 320x240, 3 frames, 2 pedestrians).\n")
	b.WriteString("# Format: <mode>/<frame> x y w h score-hex\n")
	b.WriteString("#     and <mode>/<frame>/L<k> <w>x<h> <sha256 of size + Float64bits of level k's score map>\n")
	b.WriteString("# Regenerate: go test ./internal/core/ -run TestGoldenDetections -update\n")
	for _, mode := range goldenModes {
		for f := 0; ; f++ {
			dets, ok := got.dets[goldenKey(mode, f)]
			if !ok {
				break
			}
			for _, d := range dets {
				b.WriteString(formatGoldenLine(goldenKey(mode, f), d))
				b.WriteByte('\n')
			}
			for k := 0; ; k++ {
				digest, ok := got.digests[levelKey(mode, f, k)]
				if !ok {
					break
				}
				fmt.Fprintf(&b, "%s %s\n", levelKey(mode, f, k), digest)
			}
		}
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("golden fixture rewritten: %s", goldenPath)
}

// TestGoldenDetections is the end-to-end regression pin: the trained
// detector's full-scan output on a committed synthetic clip must match the
// committed expectations bit for bit, and must stay bit-identical when the
// scan is sharded across workers or routed through the staged cascade
// kernel with floors that never reject. Besides the detections, the
// fixture pins a digest of every scanned level's score map, so the
// resampled levels, whose windows rarely clear the threshold, are pinned
// too. Any numerics change — feature extraction, resampling, scoring
// order, NMS — shows up here as a concrete diff. The whole check runs four
// times: on the default kernels, with hog's vector span kernel off, with
// hog's vector cell kernel off, and with featpyr's vector resample kernel
// off, so both scan paths, both cell-binning paths and both resampling
// paths are pinned to the same committed bits.
func TestGoldenDetections(t *testing.T) {
	det, _ := testDetector(t)
	seq := goldenSequence(t)

	got := goldenDetections(t, det.Model(), seq)
	if *updateGolden {
		writeGolden(t, got)
		return
	}
	want := readGolden(t)
	if len(want.dets) == 0 || len(want.digests) == 0 {
		t.Fatalf("golden fixture %s lacks detections or level digests (regenerate with -update)", goldenPath)
	}
	kernels := fmt.Sprintf("default kernels (vector span %v, vector cells %v, vector resample %v)",
		hog.SpanKernel(), hog.CellKernel(), featpyr.ResampleKernel())
	checkGolden(t, kernels, got, want, len(seq.Frames))

	func() {
		defer hog.SetSpanKernel(hog.SetSpanKernel(false))
		checkGolden(t, "scalar span kernel", goldenDetections(t, det.Model(), seq), want, len(seq.Frames))
	}()

	func() {
		defer hog.SetCellKernel(hog.SetCellKernel(false))
		checkGolden(t, "scalar cell kernel", goldenDetections(t, det.Model(), seq), want, len(seq.Frames))
	}()

	defer featpyr.SetResampleKernel(featpyr.SetResampleKernel(false))
	checkGolden(t, "scalar resample kernel", goldenDetections(t, det.Model(), seq), want, len(seq.Frames))
}

// goldenDetections runs every golden mode over the clip, checking on the
// way that worker count and the staged cascade kernel change no detection
// and no level score map. The cascade variants run the calibrated cascade
// with bottomless floors, which never reject: every window takes the
// staged path and must score bit-identically to the dense span kernel.
func goldenDetections(t *testing.T, model *svm.Model, seq *dataset.Sequence) goldenSet {
	t.Helper()
	staged := withFloors(model, DefaultConfig(), -math.MaxFloat64)
	// detect returns each frame's detections and level digests.
	detect := func(mode PyramidMode, workers int, cascade CascadeMode) ([][]eval.Detection, [][]string) {
		cfg := DefaultConfig()
		cfg.Mode = mode
		cfg.Workers = workers
		cfg.Cascade = cascade
		m := model
		if cascade == CascadeCalibrated {
			m = staged
		}
		d, err := NewDetector(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dets := make([][]eval.Detection, len(seq.Frames))
		digests := make([][]string, len(seq.Frames))
		for f, frame := range seq.Frames {
			if dets[f], err = d.Detect(frame); err != nil {
				t.Fatal(err)
			}
			maps, err := d.ScoreMaps(frame)
			if err != nil {
				t.Fatal(err)
			}
			for _, sm := range maps {
				digests[f] = append(digests[f], mapDigest(sm))
			}
		}
		return dets, digests
	}

	got := goldenSet{dets: make(map[string][]eval.Detection), digests: make(map[string]string)}
	for _, mode := range goldenModes {
		baseline, baseDigests := detect(mode, 1, CascadeOff)
		total := 0
		for f, dets := range baseline {
			got.dets[goldenKey(mode, f)] = dets
			total += len(dets)
			for k, digest := range baseDigests[f] {
				got.digests[levelKey(mode, f, k)] = digest
			}
		}
		if total == 0 {
			t.Errorf("%s: zero detections across the whole clip — the fixture pins nothing", mode)
		}
		// Bit-identical across worker counts and cascade on/off: these
		// variants change scheduling and evaluation order, never results.
		for _, v := range []struct {
			name    string
			workers int
			cascade CascadeMode
		}{
			{"workers=4", 4, CascadeOff},
			{"cascade", 1, CascadeCalibrated},
			{"workers=4+cascade", 4, CascadeCalibrated},
		} {
			alt, altDigests := detect(mode, v.workers, v.cascade)
			for f := range baseline {
				if !sameDets(baseline[f], alt[f]) {
					t.Errorf("%s frame %d: %s diverged from the single-worker dense scan\n got: %v\nwant: %v",
						mode, f, v.name, alt[f], baseline[f])
				}
				if !slices.Equal(baseDigests[f], altDigests[f]) {
					t.Errorf("%s frame %d: %s level score maps diverged from the single-worker dense scan\n got: %v\nwant: %v",
						mode, f, v.name, altDigests[f], baseDigests[f])
				}
			}
		}
	}
	return got
}

// checkGolden compares one run's detections and level digests with the
// committed fixture.
func checkGolden(t *testing.T, path string, got, want goldenSet, frames int) {
	t.Helper()
	for _, mode := range goldenModes {
		for f := 0; f < frames; f++ {
			key := goldenKey(mode, f)
			if !sameDets(got.dets[key], want.dets[key]) {
				t.Errorf("%s (%s): detections diverged from the committed fixture\n got: %v\nwant: %v\n(intentional numerics change? rerun with -update and review the diff)",
					key, path, got.dets[key], want.dets[key])
			}
		}
	}
	for key, digest := range got.digests {
		if want.digests[key] != digest {
			t.Errorf("%s (%s): level score map diverged from the committed fixture\n got: %s\nwant: %s\n(intentional numerics change? rerun with -update and review the diff)",
				key, path, digest, want.digests[key])
		}
	}
	// The fixture must not carry stale keys for retired modes, frames or
	// levels.
	for key := range want.dets {
		if _, ok := got.dets[key]; !ok {
			t.Errorf("golden fixture has stale key %q (regenerate with -update)", key)
		}
	}
	for key := range want.digests {
		if _, ok := got.digests[key]; !ok {
			t.Errorf("golden fixture has stale level key %q (regenerate with -update)", key)
		}
	}
}

func sameDets(a, b []eval.Detection) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
