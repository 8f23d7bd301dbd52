package core

import (
	"math/rand"
	"reflect"
	"testing"

	"gnbody/internal/align"
	"gnbody/internal/genome"
	"gnbody/internal/overlap"
)

// TestCanonicalizeHitsShuffled is the determinism regression test: a hit
// set that has been shuffled and partially mirrored (B→A records, as a
// misbehaving producer might emit) must canonicalize to exactly the
// canonical form of the pristine set.
func TestCanonicalizeHitsShuffled(t *testing.T) {
	w := makeWorkload(t, 40000, 6, 11)
	lens := w.lens()
	hits, err := SerialHits(w.reads, w.tasks, align.DefaultScoring(), 15, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) < 20 {
		t.Fatalf("workload too small: %d hits", len(hits))
	}
	want := CanonicalizeHits(hits, lens)
	if !reflect.DeepEqual(want, CanonicalizeHits(want, lens)) {
		t.Fatal("CanonicalizeHits is not idempotent")
	}

	rng := rand.New(rand.NewSource(7))
	messy := make([]Hit, len(hits))
	copy(messy, hits)
	for i := range messy {
		if rng.Intn(2) == 1 {
			h := messy[i]
			messy[i] = h.Mirror(lens[h.A], lens[h.B])
		}
	}
	rng.Shuffle(len(messy), func(i, j int) { messy[i], messy[j] = messy[j], messy[i] })
	// Symmetric duplicates: both orientations of the same pair present.
	dups := append([]Hit{}, messy...)
	for _, h := range hits[:10] {
		dups = append(dups, h.Mirror(lens[h.A], lens[h.B]))
	}
	rng.Shuffle(len(dups), func(i, j int) { dups[i], dups[j] = dups[j], dups[i] })

	if got := CanonicalizeHits(messy, lens); !reflect.DeepEqual(got, want) {
		t.Fatalf("shuffled+mirrored set canonicalizes to %d hits, want %d identical rows", len(got), len(want))
	}
	if got := CanonicalizeHits(dups, lens); !reflect.DeepEqual(got, want) {
		t.Fatalf("duplicated set canonicalizes to %d hits, want %d", len(got), len(want))
	}
}

// TestHitMirrorInvolution checks Mirror against the aligner: mirroring a
// real hit and mirroring back reproduces it exactly, and the mirrored
// extents describe the same genomic alignment from B's perspective.
func TestHitMirrorInvolution(t *testing.T) {
	g := genome.Generate(genome.Config{Length: 20000, Seed: 3})
	smp, err := genome.NewSampler(g, genome.ReadConfig{
		Coverage: 5, MeanLen: 400, SigmaLog: 0.4, BothStrands: true,
		Errors: genome.ErrorModel{Substitution: 0.02, Insertion: 0.01, Deletion: 0.01},
		Seed:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads, _ := smp.Sample()
	tasks, _, _, err := overlap.FromReadSet(reads, overlap.Config{K: 15, Lo: 2, Hi: 50})
	if err != nil {
		t.Fatal(err)
	}
	w := &testWorkload{reads: reads, tasks: tasks}
	lens := w.lens()
	hits, err := SerialHits(w.reads, w.tasks, align.DefaultScoring(), 15, 100)
	if err != nil {
		t.Fatal(err)
	}
	var rcSeen bool
	for _, h := range hits {
		m := h.Mirror(lens[h.A], lens[h.B])
		back := m.Mirror(lens[m.A], lens[m.B])
		if back != h {
			t.Fatalf("Mirror not an involution: %+v -> %+v -> %+v", h, m, back)
		}
		if h.RC {
			rcSeen = true
			// The mirrored A-extent must land inside B's bounds.
			if m.AStart < 0 || m.AEnd > lens[m.A] || m.AStart >= m.AEnd {
				t.Fatalf("mirrored extent [%d,%d) escapes read of len %d", m.AStart, m.AEnd, lens[m.A])
			}
		}
	}
	if !rcSeen {
		t.Fatal("workload produced no opposite-strand hits; mirror RC path untested")
	}
}

// TestCanonicalizeHitsTies: two hits of one pair that agree on everything
// but their end coordinates canonicalize to the same keeper whichever comes
// first, in either orientation, and SortHits puts tied hits in one order.
func TestCanonicalizeHitsTies(t *testing.T) {
	lens := []int32{500, 600}
	h1 := Hit{A: 0, B: 1, Score: 200, AStart: 100, AEnd: 480, BStart: 0, BEnd: 390}
	h2 := h1
	h2.AEnd, h2.BEnd = 470, 380
	want := []Hit{h2} // the smaller AEnd wins
	for _, in := range [][]Hit{
		{h1, h2},
		{h2, h1},
		{h1.Mirror(lens[0], lens[1]), h2},
		{h2.Mirror(lens[0], lens[1]), h1.Mirror(lens[0], lens[1])},
	} {
		if got := CanonicalizeHits(in, lens); !reflect.DeepEqual(got, want) {
			t.Errorf("CanonicalizeHits(%v) = %v, want %v", in, got, want)
		}
	}

	h3 := h1
	h3.RC = true
	a := []Hit{h1, h3, h2, h1}
	b := []Hit{h2, h1, h1, h3}
	SortHits(a)
	SortHits(b)
	if !reflect.DeepEqual(a, b) || a[0] != h2 || a[3] != h3 {
		t.Errorf("SortHits orders tied hits by input: %v vs %v", a, b)
	}
}
