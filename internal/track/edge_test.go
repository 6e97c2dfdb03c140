package track

import (
	"testing"

	"repro/internal/eval"
)

// TestCoastingExpiryBoundary pins the off-by-one in coasting: a track
// survives exactly MaxMisses consecutive unmatched frames and is deleted
// on the next one (Miss > MaxMisses), not at Miss == MaxMisses.
func TestCoastingExpiryBoundary(t *testing.T) {
	for _, maxMisses := range []int{0, 1, 3} {
		tk := New(Config{MatchIoU: 0.3, ConfirmHits: 1, MaxMisses: maxMisses})
		tk.Update([]eval.Detection{det(100, 100, 1)})
		// The track coasts for exactly maxMisses empty frames...
		for i := 1; i <= maxMisses; i++ {
			tk.Update(nil)
			live := tk.Tracks()
			if len(live) != 1 || live[0].Miss != i {
				t.Fatalf("MaxMisses=%d: after %d misses live=%+v, want one track with Miss=%d",
					maxMisses, i, live, i)
			}
		}
		// ...and dies on miss maxMisses+1, no earlier and no later.
		tk.Update(nil)
		if live := tk.Tracks(); len(live) != 0 {
			t.Fatalf("MaxMisses=%d: track survived %d misses: %+v", maxMisses, maxMisses+1, live)
		}
	}
}

// TestMissCountResetsOnMatch verifies a re-association clears the miss
// streak entirely: after coasting MaxMisses-1 frames and rematching, the
// track again survives a full MaxMisses misses.
func TestMissCountResetsOnMatch(t *testing.T) {
	tk := New(Config{MatchIoU: 0.3, ConfirmHits: 1, MaxMisses: 2})
	tk.Update([]eval.Detection{det(100, 100, 1)})
	tk.Update(nil)
	tk.Update(nil) // Miss == MaxMisses: one frame from deletion
	tk.Update([]eval.Detection{det(100, 100, 1)})
	if live := tk.Tracks(); len(live) != 1 || live[0].Miss != 0 {
		t.Fatalf("after rematch: %+v, want one track with Miss=0", live)
	}
	// The full coasting budget is available again.
	tk.Update(nil)
	tk.Update(nil)
	if live := tk.Tracks(); len(live) != 1 {
		t.Fatalf("rematched track did not get a fresh coasting budget: %+v", live)
	}
	tk.Update(nil)
	if live := tk.Tracks(); len(live) != 0 {
		t.Fatalf("rematched track outlived its coasting budget: %+v", live)
	}
}

// TestConfirmAndDeleteSameFrame drives one Update in which track A receives
// its confirming hit while track B simultaneously exceeds MaxMisses: the
// confirmation must not resurrect or shield the dying track, and the
// deletion must not eat the confirmation.
func TestConfirmAndDeleteSameFrame(t *testing.T) {
	tk := New(Config{MatchIoU: 0.3, ConfirmHits: 2, MaxMisses: 1})
	a := det(0, 0, 1)
	b := det(400, 0, 1) // far away: never associates with a
	c := det(200, 0, 1) // far from both: always a fresh track
	tk.Update([]eval.Detection{a, b})
	tk.Update(nil) // both coast: Miss == MaxMisses
	// This frame does all three lifecycle transitions at once: b gets its
	// confirming second hit, a exceeds MaxMisses and is deleted, and c is
	// born tentative.
	tk.Update([]eval.Detection{b, c})
	live := tk.Tracks()
	if len(live) != 2 {
		t.Fatalf("live tracks = %+v, want confirmed b + new tentative c", live)
	}
	var conf, tent *Track
	for _, tr := range live {
		switch tr.State {
		case Confirmed:
			conf = tr
		case Tentative:
			tent = tr
		}
	}
	if conf == nil || tent == nil {
		t.Fatalf("want one confirmed and one tentative, got %+v", live)
	}
	if conf.Box != b.Box {
		t.Errorf("confirmed track box %v, want %v", conf.Box, b.Box)
	}
	if conf.ConfirmedFrame != 2 {
		t.Errorf("confirmed at frame %d, want 2", conf.ConfirmedFrame)
	}
	// The dying track at a's location must not capture c's detection: the
	// new track is born this frame with a fresh ID.
	if tent.Box != c.Box || tent.BornFrame != 2 || tent.Hits != 1 {
		t.Errorf("tentative track %+v, want c's box born at frame 2 with 1 hit", tent)
	}
	if tent.ID != 2 {
		t.Errorf("new tentative has ID %d, want fresh ID 2", tent.ID)
	}
	// AppendLiveBoxes sees exactly the live pair — deleted tracks excluded,
	// tentative included.
	boxes := tk.AppendLiveBoxes(nil)
	if len(boxes) != 2 {
		t.Fatalf("AppendLiveBoxes = %v, want 2 boxes", boxes)
	}
}

// TestGreedyTieBreakDeterminism pins the association order for equal-score
// detections: sort.Slice is unstable, so the comparator's index tie-break
// is what keeps two same-score detections associating identically run to
// run. Geometry is chosen so processing order is observable: both
// detections prefer track A; whichever goes first wins A, and only the
// index-0 detection leaves the other enough overlap (IoU 0.33 vs 0.28
// around the 0.3 gate) to still claim track B instead of spawning a third
// track.
func TestGreedyTieBreakDeterminism(t *testing.T) {
	d0 := det(4, 0, 0.7)
	d1 := det(8, 0, 0.7)
	for trial := 0; trial < 100; trial++ {
		tk := New(Config{MatchIoU: 0.3, ConfirmHits: 1, MaxMisses: 0})
		tk.Update([]eval.Detection{det(0, 0, 1), det(40, 0, 0.9)}) // tracks A, B
		tk.Update([]eval.Detection{d0, d1})
		live := tk.Tracks()
		if len(live) != 2 {
			t.Fatalf("trial %d: %d live tracks %+v, want A and B rematched with no third",
				trial, len(live), live)
		}
		if live[0].Box != d0.Box || live[1].Box != d1.Box {
			t.Fatalf("trial %d: boxes (%v, %v), want d0->A (%v) and d1->B (%v)",
				trial, live[0].Box, live[1].Box, d0.Box, d1.Box)
		}
	}
}

// TestTrackTieBreakLastWins documents the track-side tie: when a detection
// overlaps two tracks with exactly equal IoU, the >= comparison hands it
// to the later track in insertion order — deterministic because insertion
// order is.
func TestTrackTieBreakLastWins(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		tk := New(Config{MatchIoU: 0.1, ConfirmHits: 1, MaxMisses: 0})
		// Two tracks symmetric about x=32; a centered detection ties exactly.
		tk.Update([]eval.Detection{det(0, 0, 1), det(64, 0, 0.9)})
		tk.Update([]eval.Detection{det(32, 0, 1)})
		live := tk.Tracks()
		if len(live) != 1 {
			t.Fatalf("trial %d: live=%+v, want only the tie-winner (other expired)", trial, live)
		}
		if live[0].ID != 1 {
			t.Fatalf("trial %d: tie went to track %d, want the later track 1", trial, live[0].ID)
		}
	}
}

// TestDeletedTracksLeaveTheTracker drives the churn of a long stream: one
// fresh detection per frame that never reappears, so every frame births a
// track and, once the pipe is full, deletes one. The tracker must store
// only its live tracks — keeping the deleted ones would grow memory and
// Update's cost with every birth.
func TestDeletedTracksLeaveTheTracker(t *testing.T) {
	cfg := DefaultConfig()
	tk := New(cfg)
	for f := 0; f < 2000; f++ {
		// Eight columns 200 px apart: a detection never overlaps a track
		// born in the last MaxMisses frames.
		tk.Update([]eval.Detection{det((f%8)*200, 0, 1)})
	}
	live := 0
	for _, tr := range tk.tracks {
		if tr.State != Deleted {
			live++
		}
	}
	if len(tk.tracks) != live {
		t.Fatalf("tracker stores %d tracks, %d of them live", len(tk.tracks), live)
	}
	if want := cfg.MaxMisses + 1; live != want {
		t.Fatalf("%d live tracks, want %d (one birth per frame, each coasting %d frames)", live, want, cfg.MaxMisses)
	}
}
