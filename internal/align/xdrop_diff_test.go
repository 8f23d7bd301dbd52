package align

import (
	"math/rand"
	"testing"

	"gnbody/internal/seq"
)

// The differential battery: the Workspace row kernel, on each row leaf this
// machine runs, must reproduce the retained reference kernel bit for bit —
// Score, AExt, BExt and the Cells work measure — on any input and in both
// walk directions, with the workspace deliberately kept dirty across cases
// to prove stale row or profile contents never leak into a result.

// rowLeaf is one implementation of the row leaf: the Go loop extendRow, or
// the AVX2 one where this machine can run it.
type rowLeaf struct {
	name string
	avx2 bool
}

// rowLeaves lists the leaves this machine runs, the Go leaf first.
func rowLeaves() []rowLeaf {
	ls := []rowLeaf{{"go", false}}
	if seq.HasAVX2() {
		ls = append(ls, rowLeaf{"avx2", true})
	}
	return ls
}

// run calls the leaf directly, as Workspace.extend calls it.
func (l rowLeaf) run(row, sub []int32, gap, best, x int32) (int32, int) {
	if l.avx2 {
		var g gapRamp
		g.set(gap)
		return extendRowAVX2(row, sub, best, x, &g)
	}
	return extendRow(row, sub, gap, best, x)
}

// forLeaves runs f once per leaf with Workspace.extend calling that leaf,
// then restores the selection.
func forLeaves(f func(l rowLeaf)) {
	defer func(saved bool) { useAVX2 = saved }(useAVX2)
	for _, l := range rowLeaves() {
		useAVX2 = l.avx2
		f(l)
	}
}

// diffCase runs the row kernel on every leaf and the reference kernel on
// one extension input, forward and over reversed indices, and compares.
func diffCase(t *testing.T, w *Workspace, a, b seq.Seq, sc Scoring, x int) {
	t.Helper()
	forLeaves(func(l rowLeaf) {
		for _, rev := range []bool{false, true} {
			ra, rb := a, b
			if rev {
				ra, rb = reverse(a), reverse(b)
			}
			want := extendRightRef(ra, rb, sc, x)
			got := w.extend(a, b, sc, x, rev)
			if got != want {
				t.Fatalf("%s leaf: extend(a=%s,b=%s,%+v,x=%d,rev=%v):\n workspace %+v\n reference %+v",
					l.name, a, b, sc, x, rev, got, want)
			}
		}
	})
}

// seedDiffCase compares SeedExtend on every leaf with the reference.
func seedDiffCase(t *testing.T, w *Workspace, a, b seq.Seq, posA, posB, k int, sc Scoring, x int) {
	t.Helper()
	want, errW := seedExtendRef(a, b, posA, posB, k, sc, x)
	forLeaves(func(l rowLeaf) {
		got, errG := w.SeedExtend(a, b, posA, posB, k, sc, x)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("%s leaf: error mismatch: ref %v, workspace %v", l.name, errW, errG)
		}
		if errW == nil && got != want {
			t.Fatalf("%s leaf: SeedExtend(|a|=%d,|b|=%d,posA=%d,posB=%d,k=%d,%+v,x=%d):\n workspace %+v\n reference %+v",
				l.name, len(a), len(b), posA, posB, k, sc, x, got, want)
		}
	})
}

func randSeq(rng *rand.Rand, n int) seq.Seq {
	s := make(seq.Seq, n)
	for i := range s {
		s[i] = seq.Base(rng.Intn(seq.NumBases)) // includes N
	}
	return s
}

// TestRowKernelAdversarialRows drives the row shapes the kernel's
// equivalence argument rests on: the unpruned left carry, the first-
// occurrence scan for BExt, and the window edges. (Column lo itself can
// never raise the best — it has only the vertical move — so the leftmost
// rise is in column lo+1.)
func TestRowKernelAdversarialRows(t *testing.T) {
	unit := DefaultScoring()
	const edgeMag = 1<<26 - 1 // 8*edgeMag + 7 = 2^29 - 1: the last input fitsInt32 admits for |a|=|b|=3
	edge := Scoring{Match: edgeMag, Mismatch: -edgeMag, Gap: -edgeMag}
	cases := []struct {
		name string
		a, b string
		sc   Scoring
		x    int
	}{
		// x = 0 keeps one live cell per row: the best rises in the phi+1
		// tail column every row, and the column under it is pruned.
		{"x0-tail-rise", "ACGTACGT", "ACGTACGT", unit, 0},
		// x = 1 keeps the cell right of the diagonal alive, so the rise is
		// in the last middle column with a tail column after it.
		{"x1-last-middle-rise", "ACGTACGT", "ACGTACGT", unit, 1},
		// A window as wide as b: no tail column at all, rises mid-window
		// and finally in column blen.
		{"blen-lt-alen-no-tail", "ACGTACGT", "ACGT", unit, 10},
		{"gap-ne-mismatch", "ACGTTACGGA", "ACGTACGTGA", Scoring{Match: 3, Mismatch: -2, Gap: -5}, 7},
		{"cheap-gaps", "ACGTTACGGA", "ACGACGTGGA", Scoring{Match: 2, Mismatch: -7, Gap: -1}, 6},
		// Row 2 scores 2 in columns 1 and 2; the reference stops at the first.
		{"row-max-tie", "CGT", "GG", Scoring{Match: 3, Mismatch: -1, Gap: -1}, 5},
		{"row-max-tie-wide", "TACT", "AAAG", Scoring{Match: 3, Mismatch: -1, Gap: -1}, 7},
		{"whole-row-pruned", "AAAAAA", "CCCCCC", unit, 1},
		{"dies-after-match", "ACGTTTTTTT", "ACGTAAAAAA", unit, 2},
		{"n-runs", "ACGNNNNACGTAC", "ACGTACGNNTACN", unit, 8},
		{"all-n", "NNNN", "NNNN", unit, 3},
		{"empty-a", "", "ACGT", unit, 5},
		{"empty-b", "ACGT", "", unit, 5},
		{"fits-int32-last-in", "ACG", "ACG", edge, 7},
		{"fits-int32-first-out", "ACG", "ACG", edge, 8},
	}
	w := NewWorkspace()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diffCase(t, w, seq.MustFromString(tc.a), seq.MustFromString(tc.b), tc.sc, tc.x)
		})
	}

	acg := seq.MustFromString("ACG")
	w.TakeStats()
	w.ExtendRight(acg, acg, edge, 7)
	in := w.TakeStats()
	w.ExtendRight(acg, acg, edge, 8)
	out := w.TakeStats()
	if in.RowExts != 1 || in.RefExts != 0 || out.RowExts != 0 || out.RefExts != 1 {
		t.Errorf("gate edge: x=7 ran %+v, x=8 ran %+v; want the row kernel, then the reference", in, out)
	}
	tie := Scoring{Match: 3, Mismatch: -1, Gap: -1}
	if got := w.ExtendRight(seq.MustFromString("CGT"), seq.MustFromString("GG"), tie, 5); got.AExt != 2 || got.BExt != 1 {
		t.Errorf("row-max tie: extents (%d,%d), want the first occurrence (2,1)", got.AExt, got.BExt)
	}
}

// refRow is the reference kernel's inner loop transcribed cell by cell for
// one window: negInf32 in up is a pruned cell (no move), each cell is
// pruned against the best seen before it, and the left move comes from the
// pruned cell the loop just stored.
func refRow(up, sub []int32, gap, best, x int32) (out []int32, rowBest int32, top int) {
	out = make([]int32, len(up))
	top = -1
	for j := range up {
		v := int64(negInf)
		if up[j] != negInf32 {
			v = max(v, int64(up[j])+int64(gap))
		}
		if j > 0 && up[j-1] != negInf32 {
			v = max(v, int64(up[j-1])+int64(sub[j]))
		}
		if j > 0 && out[j-1] != negInf32 {
			v = max(v, int64(out[j-1])+int64(gap))
		}
		out[j] = negInf32
		if v >= int64(best)-int64(x) {
			out[j] = int32(v)
		}
		if v > int64(best) {
			best, top = int32(v), j
		}
	}
	return out, best, top
}

// TestExtendRowMatchesCells pins each leaf to refRow on windows the driver
// never builds on its own schedule: widths 0–300, up rows with negInf32
// runs, real profile rows, x = 0 and |gap| ≠ |mismatch| — every stored
// cell, the returned best and the column of its first occurrence.
func TestExtendRowMatchesCells(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w := NewWorkspace()
	for iter := 0; iter < 4000; iter++ {
		sc := Scoring{Match: 1 + rng.Intn(5), Mismatch: -1 - rng.Intn(8), Gap: -1 - rng.Intn(8)}
		x := int32(rng.Intn(40))
		if iter%4 == 0 {
			x = 0
		}
		width := rng.Intn(301)
		b := randSeq(rng, width+1+rng.Intn(20))
		rev := iter%2 == 1
		w.ensure(sc, len(b))
		w.buildProfile(b, rev, 1, len(b))
		lo := rng.Intn(len(b) + 1 - width)
		sub := w.prof[rng.Intn(seq.NumBases)][lo : lo+width]

		best := int32(rng.Intn(1000))
		up := make([]int32, width)
		for j := 0; j < width; {
			run := 1 + rng.Intn(6)
			dead := rng.Intn(3) == 0
			for ; run > 0 && j < width; run, j = run-1, j+1 {
				up[j] = best - int32(rng.Intn(int(x)+8)) + 3
				if dead {
					up[j] = negInf32
				}
			}
		}

		for _, l := range rowLeaves() {
			checkLeaf(t, l, append([]int32(nil), up...), sub, int32(sc.Gap), best, x)
		}
	}
}

// checkLeaf runs leaf l over row in place and compares every stored cell,
// the returned best and top with refRow on the row's entry values.
func checkLeaf(t *testing.T, l rowLeaf, row, sub []int32, gap, best, x int32) {
	t.Helper()
	up := append([]int32(nil), row...)
	wantRow, wantBest, wantTop := refRow(up, sub, gap, best, x)
	gotBest, gotTop := l.run(row, sub, gap, best, x)
	if gotBest != wantBest || gotTop != wantTop {
		t.Fatalf("%s leaf (gap=%d, x=%d, best=%d, width %d): returned (%d, %d), reference (%d, %d)",
			l.name, gap, x, best, len(up), gotBest, gotTop, wantBest, wantTop)
	}
	for j := range row {
		if row[j] != wantRow[j] {
			t.Fatalf("%s leaf (gap=%d, x=%d, best=%d): cell %d of %d stored %d, reference %d\n up  %v\n sub %v",
				l.name, gap, x, best, j, len(up), row[j], wantRow[j], up, sub)
		}
	}
}

// TestRowLeafGuards holds every leaf to refRow where a vector leaf can go
// wrong: each width 0–300 (every partial last block of 1–7 columns after
// every count of full blocks), x = 0, and the largest score magnitude
// fitsInt32 admits for a one-row extension of that width, where the AVX2
// scans come closest to int32's floor. The row and profile sit between
// sentinels: the row's must survive, and the profile's would raise the best
// if a leaf read them.
func TestRowLeafGuards(t *testing.T) {
	const sentinel = 0x5a5a5a5a
	rng := rand.New(rand.NewSource(12))
	for width := 0; width <= 300; width++ {
		edge := int32((1<<29 - 1) / (width + 2)) // fitsInt32's n for alen 1, blen width-1
		if width > 0 {
			sc := Scoring{Match: int(edge), Mismatch: -int(edge), Gap: -int(edge)}
			in := fitsInt32(1, width-1, sc, 0)
			sc.Match++
			if !in || fitsInt32(1, width-1, sc, 0) {
				t.Fatalf("width %d: %d is not the largest magnitude fitsInt32 admits", width, edge)
			}
		}
		for _, c := range []struct{ gap, mag, x int32 }{
			{-1 - rng.Int31n(8), 1 + rng.Int31n(5), 0},
			{-1 - rng.Int31n(8), 1 + rng.Int31n(5), rng.Int31n(40)},
			{-edge, edge, 0},
		} {
			best := rng.Int31n(1000)
			if c.mag == edge {
				best = 0
			}
			rowBuf, subBuf := make([]int32, width+16), make([]int32, width+16)
			for j := range rowBuf {
				rowBuf[j], subBuf[j] = sentinel, sentinel
			}
			up, sub := make([]int32, width), subBuf[1:1+width]
			for j := range up {
				switch {
				case rng.Intn(3) == 0:
					up[j] = negInf32
				case c.mag == edge:
					up[j] = -rng.Int31n(edge)
				default:
					up[j] = best - rng.Int31n(c.x+8) + 3
				}
				sub[j] = c.mag
				if rng.Intn(3) == 0 {
					sub[j] = -c.mag
				}
			}
			for _, l := range rowLeaves() {
				row := rowBuf[1 : 1+width]
				copy(row, up)
				checkLeaf(t, l, row, sub, c.gap, best, c.x)
				for j, v := range rowBuf {
					if (j == 0 || j > width) && v != sentinel {
						t.Fatalf("%s leaf, width %d: wrote %d to row cell %d, outside the window", l.name, width, v, j-1)
					}
				}
			}
		}
	}
}

// TestWorkspaceMatchesReferenceExtend is the seeded property test: 20 000
// random cases — unrelated pairs, mutated copies, shared prefixes; N
// included; schemes with unequal penalties — against the reference in both
// walk directions.
func TestWorkspaceMatchesReferenceExtend(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := NewWorkspace() // shared across all cases: dirty-buffer reuse is the point
	for iter := 0; iter < 20000; iter++ {
		sc := DefaultScoring()
		if iter%2 == 0 {
			sc = Scoring{Match: 1 + rng.Intn(5), Mismatch: -1 - rng.Intn(16), Gap: -1 - rng.Intn(11)}
		}
		x := rng.Intn(60)
		la, lb := rng.Intn(60), rng.Intn(60)
		if iter%100 == 0 { // a few long ones cross several profile chunks
			la, lb = 200+rng.Intn(200), 200+rng.Intn(200)
		}
		var a, b seq.Seq
		switch rng.Intn(3) {
		case 0: // unrelated
			a, b = randSeq(rng, la), randSeq(rng, lb)
		case 1: // mutated copy: long extensions
			a = randSeq(rng, la)
			b = a.Clone()
			for m := 0; m < la/8; m++ {
				b[rng.Intn(la)] = seq.Base(rng.Intn(seq.NumBases))
			}
		default: // shared prefix, then divergence: mid-run termination
			a = randSeq(rng, la)
			b = append(a[:la/2].Clone(), randSeq(rng, lb/2)...)
		}
		diffCase(t, w, a, b, sc, x)
	}
}

func TestWorkspaceMatchesReferenceSeedExtend(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	w := NewWorkspace()
	for iter := 0; iter < 400; iter++ {
		sc := DefaultScoring()
		if iter%3 == 0 {
			sc = Scoring{Match: 1 + rng.Intn(4), Mismatch: -1 - rng.Intn(6), Gap: -1 - rng.Intn(6)}
		}
		n := 20 + rng.Intn(300)
		a := randSeq(rng, n)
		b := a.Clone()
		for m := 0; m < n/10; m++ {
			b[rng.Intn(n)] = seq.Base(rng.Intn(seq.NumBases))
		}
		k := 1 + rng.Intn(17)
		posA := rng.Intn(n - k + 1)
		posB := rng.Intn(n - k + 1)
		seedDiffCase(t, w, a, b, posA, posB, k, sc, rng.Intn(50))
	}
}

// TestWorkspaceOverflowFallback drives the int32-overflow guard: scoring
// magnitudes near the int32 ceiling must route to the reference kernel and
// still agree with it.
func TestWorkspaceOverflowFallback(t *testing.T) {
	w := NewWorkspace()
	a := seq.MustFromString("ACGTACGTAC")
	b := seq.MustFromString("ACGTTCGTAC")
	sc := Scoring{Match: 1 << 28, Mismatch: -(1 << 28), Gap: -(1 << 28)}
	if fitsInt32(len(a), len(b), sc, 10) {
		t.Fatal("guard accepted a scheme that can overflow int32")
	}
	diffCase(t, w, a, b, sc, 1<<27)
	if st := w.TakeStats(); st.RowExts != 0 || st.RefExts == 0 {
		t.Errorf("kernel stats %+v, want reference only", st)
	}
}

// TestSeedExtendWarmWorkspaceAllocFree is the allocation guard: with the
// rows and the profile grown, the whole seed-and-extend path — including
// the reversed-index left extension — performs zero heap allocations.
func TestSeedExtendWarmWorkspaceAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 2000
	a := randSeq(rng, n)
	b := a.Clone()
	for m := 0; m < n/10; m++ {
		b[rng.Intn(n)] = seq.Base(rng.Intn(4))
	}
	w := NewWorkspace()
	sc := DefaultScoring()
	if _, err := w.SeedExtend(a, b, n/2, n/2, 17, sc, 15); err != nil {
		t.Fatal(err)
	}
	if st := w.TakeStats(); st.RowExts != 2 || st.RefExts != 0 {
		t.Fatalf("warm-up did not run on the row kernel: %+v", st)
	}
	forLeaves(func(l rowLeaf) {
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := w.SeedExtend(a, b, n/2, n/2, 17, sc, 15); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s leaf: warm-workspace SeedExtend allocates %.1f times per run, want 0", l.name, allocs)
		}
	})
}

// TestRevCompWarmAllocFree pins the reverse-complement scratch: warm
// workspaces serve opposite-strand tasks without allocating.
func TestRevCompWarmAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	s := randSeq(rng, 3000)
	w := NewWorkspace()
	got := w.RevComp(s)
	want := s.ReverseComplement()
	if len(got) != len(want) {
		t.Fatalf("RevComp length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("RevComp[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	allocs := testing.AllocsPerRun(50, func() { w.RevComp(s) })
	if allocs != 0 {
		t.Fatalf("warm RevComp allocates %.1f times per run, want 0", allocs)
	}
}

// FuzzXDropDiff is the differential fuzz target: arbitrary sequences,
// seeds, X parameters and scoring magnitudes — across the fitsInt32 gate —
// through the reference and the row kernel on every leaf, forward and
// reversed, on a package-shared dirty workspace. Any divergence in
// Score/AExt/BExt/Cells fails.
func FuzzXDropDiff(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x03"), []byte("\x00\x01\x02\x03"), 2, 2, 2, 15, 1, 1, 1)
	f.Add([]byte("\x00\x00\x01\x01\x02\x02"), []byte("\x02\x02\x01\x01"), 0, 0, 3, 4, 5, 4, 11)
	f.Add([]byte(""), []byte(""), 0, 0, 1, 0, 1, 16000, 19999)
	f.Add([]byte("\x00\x01"), []byte("\x00\x01"), 0, 0, 1, 2000, 1<<27, 1<<27, 1<<27)
	w := NewWorkspace()
	// mag folds any int into [0, 2^28) with a log-uniform spread (28 value
	// bits shifted right by the next five), so short inputs land on both
	// sides of the fitsInt32 gate and small scores stay common.
	mag := func(v int) int { return v & (1<<28 - 1) >> (v >> 28 & 31) }
	f.Fuzz(func(t *testing.T, ab, bb []byte, posA, posB, k, x, match, mism, gap int) {
		a := fuzzSeq(ab, 300)
		b := fuzzSeq(bb, 300)
		sc := Scoring{Match: 1 + mag(match), Mismatch: -1 - mag(mism), Gap: -1 - mag(gap)}
		if x < 0 {
			x = -1 // clamped to 0 by both kernels
		}
		x %= 1 << 29

		diffCase(t, w, a, b, sc, x)
		seedDiffCase(t, w, a, b, posA, posB, k, sc, x)
	})
}
