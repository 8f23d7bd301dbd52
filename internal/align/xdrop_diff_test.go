package align

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gnbody/internal/seq"
)

// The differential battery: the Workspace row kernel, on each row leaf this
// machine runs, must reproduce the retained reference kernel bit for bit —
// Score, AExt, BExt and the Cells work measure — on any input and in both
// walk directions, with the workspace deliberately kept dirty across cases
// to prove stale row or profile contents never leak into a result.

// rowLeaf is one implementation of the row loop: the Go loop extendRows
// around extendRow, or the AVX2 one where this machine can run it.
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

// rows makes one call of the leaf's row loop.
func (l rowLeaf) rows(st *rowsState) {
	if l.avx2 {
		extendRowsAVX2(st)
	} else {
		extendRows(st)
	}
}

// rowSentinel fills the slab around a window run: a row cell that keeps it
// was not written, and a profile cell holding it would raise the best if a
// leaf used it.
const rowSentinel = 0x5a5a5a5a

// run computes one DP row over a window through the leaf's row loop: a
// call whose one row is the window. The window is width columns from lo, a
// column that varies with the width mod 8; b ends at its last column, so
// the row does not widen; and a is one base whose profile row holds sub.
// The slab holds rowSentinel elsewhere, except what the loop's contract
// asks of the window's blocks of eight: the row negInf32 left of lo and
// right of hi, and the profile real scores (sub's largest) left of lo.
// row holds the row above on entry and this row on return. run returns
// the running best; top, the offset of the first cell holding it if the
// row raised it (-1 if not); and the offsets of the first and last cells
// the row kept, the window the next row would get (first > last: none).
// It fails t if the call did not run the row, or wrote outside the window
// anything but negInf32 in the window's blocks and the block after them.
func (l rowLeaf) run(t *testing.T, row, sub []int32, gap, best, x int32) (rowBest int32, top, first, last int) {
	t.Helper()
	width := len(row)
	if width == 0 { // no window: the loop never runs a row
		return best, -1, 0, -1
	}
	lo := 8 + 3*width%8
	hi := lo + width - 1
	stride := (hi+8)&^7 + 16
	slab := make([]int32, (1+seq.NumBases)*stride)
	for j := range slab {
		slab[j] = rowSentinel
	}
	prof := slab[stride:]
	for j := lo &^ 7; j < lo; j++ {
		slab[j], prof[j] = negInf32, slices.Max(sub[:width])
	}
	for j := hi + 1; j <= hi|7; j++ {
		slab[j] = negInf32
	}
	copy(slab[lo:], row)
	copy(prof[lo:], sub[:width])
	entry := append([]int32(nil), slab...)
	st := rowsState{slab: slab, stride: stride, a: seq.Seq{seq.A}, blen: hi, built: hi,
		lo: lo, hi: hi, best: best, x: x}
	st.ramp.set(gap)
	l.rows(&st)
	if st.i != 1 || st.cells != width {
		t.Fatalf("%s leaf, width %d: ran %d rows and %d cells, want 1 and %d", l.name, width, st.i, st.cells, width)
	}
	for j, v := range slab {
		inBlocks := j >= lo&^7 && j <= hi|7+8
		if (j < lo || j > hi) && v != entry[j] && !(inBlocks && v == negInf32) {
			t.Fatalf("%s leaf, width %d: slab cell %d changed from %d to %d, outside the window [%d, %d]",
				l.name, width, j, entry[j], v, lo, hi)
		}
	}
	copy(row, slab[lo:])
	top = -1
	if st.bestI == 1 {
		top = st.bestJ - lo
	}
	return st.best, top, st.lo - lo, st.hi - lo
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
// one extension input, forward and over reversed indices, and compares;
// the traced kernel must report the reference's extension, with a
// transcript that covers the extended prefixes and rescores to its score.
func diffCase(t *testing.T, w *Workspace, a, b seq.Seq, sc Scoring, x int) {
	t.Helper()
	for _, rev := range []bool{false, true} {
		ra, rb := a, b
		if rev {
			ra, rb = reverse(a), reverse(b)
		}
		want := extendRightRef(ra, rb, sc, x, nil)
		traced, cigar := ExtendRightTrace(ra, rb, sc, x)
		if traced != want {
			t.Fatalf("ExtendRightTrace(a=%s,b=%s,%+v,x=%d,rev=%v):\n traced    %+v\n reference %+v",
				a, b, sc, x, rev, traced, want)
		}
		checkCigar(t, cigar, ra[:want.AExt], rb[:want.BExt], sc, want.Score)
		forLeaves(func(l rowLeaf) {
			got := w.extend(a, b, sc, x, rev)
			if got != want {
				t.Fatalf("%s leaf: extend(a=%s,b=%s,%+v,x=%d,rev=%v):\n workspace %+v\n reference %+v",
					l.name, a, b, sc, x, rev, got, want)
			}
		})
	}
}

// seedDiffCase compares SeedExtend on every leaf, and SeedExtendTrace,
// with the reference.
func seedDiffCase(t *testing.T, w *Workspace, a, b seq.Seq, posA, posB, k int, sc Scoring, x int) {
	t.Helper()
	want, errW := seedExtendRef(a, b, posA, posB, k, sc, x)
	traced, cigar, errT := SeedExtendTrace(a, b, posA, posB, k, sc, x)
	if (errW == nil) != (errT == nil) {
		t.Fatalf("error mismatch: ref %v, traced %v", errW, errT)
	}
	if errW == nil {
		if traced != want {
			t.Fatalf("SeedExtendTrace(|a|=%d,|b|=%d,posA=%d,posB=%d,k=%d,%+v,x=%d):\n traced    %+v\n reference %+v",
				len(a), len(b), posA, posB, k, sc, x, traced, want)
		}
		checkCigar(t, cigar, a[want.AStart:want.AEnd], b[want.BStart:want.BEnd], sc, want.Score)
	}
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

// checkCigar holds a transcript to the regions it aligns and the score
// reported for them.
func checkCigar(t *testing.T, c Cigar, a, b seq.Seq, sc Scoring, score int) {
	t.Helper()
	if err := c.Validate(a, b); err != nil {
		t.Fatalf("transcript %s: %v", c, err)
	}
	if got := c.Score(sc); got != score {
		t.Fatalf("transcript %s rescores to %d, reported %d", c, got, score)
	}
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
// pruned cell the loop just stored. first and last are the offsets of the
// first and last cells kept (first > last: none).
func refRow(up, sub []int32, gap, best, x int32) (out []int32, rowBest int32, top, first, last int) {
	out = make([]int32, len(up))
	top, first, last = -1, 0, -1
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
	for first < len(out) && out[first] == negInf32 {
		first++
	}
	for last = len(out) - 1; last >= first && out[last] == negInf32; last-- {
	}
	return out, best, top, first, last
}

// TestExtendRowMatchesCells pins each leaf to refRow on windows the driver
// never builds on its own schedule: widths 0–300, up rows with negInf32
// runs, real profile rows, x = 0 and |gap| ≠ |mismatch| — every stored
// cell, the returned best, the column of its first occurrence and the
// window the row leaves for the next.
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
		sub := w.profRow(seq.Base(rng.Intn(seq.NumBases)))[lo : lo+width]

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
// the returned best, top and the kept window with refRow on the row's
// entry values.
func checkLeaf(t *testing.T, l rowLeaf, row, sub []int32, gap, best, x int32) {
	t.Helper()
	up := append([]int32(nil), row...)
	wantRow, wantBest, wantTop, wantFirst, wantLast := refRow(up, sub, gap, best, x)
	gotBest, gotTop, gotFirst, gotLast := l.run(t, row, sub, gap, best, x)
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
	if wantFirst > wantLast {
		wantFirst, wantLast = gotFirst, gotFirst-1 // an empty window is any lo > hi
	}
	if gotFirst != wantFirst || gotLast != wantLast {
		t.Fatalf("%s leaf (gap=%d, x=%d, best=%d, width %d): kept [%d, %d], reference [%d, %d]\n row %v",
			l.name, gap, x, best, len(up), gotFirst, gotLast, wantFirst, wantLast, wantRow)
	}
}

// TestRowLeafGuards holds every leaf to refRow where a vector leaf can go
// wrong: each width 0–300 (every partial last block of 1–7 columns after
// every count of full blocks), x = 0, and the largest score magnitude
// fitsInt32 admits for a one-row extension of that width, where the AVX2
// scans come closest to int32's floor. Each row runs through the row
// loop between sentinels (rowLeaf.run): the row's must survive, and the
// profile's would raise the best if a leaf read them.
func TestRowLeafGuards(t *testing.T) {
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
			up, sub := make([]int32, width), make([]int32, width)
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
				checkLeaf(t, l, append([]int32(nil), up...), sub, c.gap, best, c.x)
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

// FuzzXDropDiff is the differential fuzz target: arbitrary sequences (up
// to maxFuzzSeq long), seeds, X parameters and scoring magnitudes —
// across the fitsInt32 gate — through the reference and the row kernel on
// every leaf, forward and reversed, on a package-shared dirty workspace.
// Any divergence in Score/AExt/BExt/Cells fails.
func FuzzXDropDiff(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x03"), []byte("\x00\x01\x02\x03"), 2, 2, 2, 15, 1, 1, 1)
	f.Add([]byte("\x00\x00\x01\x01\x02\x02"), []byte("\x02\x02\x01\x01"), 0, 0, 3, 4, 5, 4, 11)
	f.Add([]byte(""), []byte(""), 0, 0, 1, 0, 1, 16000, 19999)
	f.Add([]byte("\x00\x01"), []byte("\x00\x01"), 0, 0, 1, 2000, 1<<27, 1<<27, 1<<27)
	// Lengths at the row loop's call boundaries: b ending 63–65 columns past
	// row 0's band of 15 (the profile chunk's edge). The row cap's seeds are
	// longer than the fuzz cap: TestXDropDiffLongSeeds runs them.
	for _, past := range []int{profChunk - 1, profChunk, profChunk + 1} {
		f.Add(diffPattern(15+past+30), diffPattern(15+past), 10, 10, 5, 15, 0, 0, 0)
	}
	w := NewWorkspace()
	f.Fuzz(func(t *testing.T, ab, bb []byte, posA, posB, k, x, match, mism, gap int) {
		if len(ab) > maxFuzzSeq || len(bb) > maxFuzzSeq {
			return
		}
		xdropDiffInput(t, w, ab, bb, posA, posB, k, x, match, mism, gap)
	})
}

// TestXDropDiffLongSeeds runs FuzzXDropDiff's checks on the inputs longer
// than its cap: a of rowCap ±1 rows against a short b with an x the window
// never drops below.
func TestXDropDiffLongSeeds(t *testing.T) {
	w := NewWorkspace()
	for _, alen := range []int{rowCap - 1, rowCap, rowCap + 1} {
		t.Run(fmt.Sprintf("alen-%d", alen), func(t *testing.T) {
			xdropDiffInput(t, w, diffPattern(alen), diffPattern(40), 0, 0, 1, 3*rowCap, 0, 0, 0)
		})
	}
}

// diffPattern is n bytes of a fixed, aperiodic-looking base pattern.
func diffPattern(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + i/5)
	}
	return p
}

// xdropDiffInput is one FuzzXDropDiff input: the fuzzed scoring
// magnitudes fold into [0, 2^28) with a log-uniform spread (28 value bits
// shifted right by the next five), so short inputs land on both sides of
// the fitsInt32 gate and small scores stay common.
func xdropDiffInput(t *testing.T, w *Workspace, ab, bb []byte, posA, posB, k, x, match, mism, gap int) {
	t.Helper()
	mag := func(v int) int { return v & (1<<28 - 1) >> (v >> 28 & 31) }
	a, b := fuzzSeq(ab), fuzzSeq(bb)
	sc := Scoring{Match: 1 + mag(match), Mismatch: -1 - mag(mism), Gap: -1 - mag(gap)}
	if x < 0 {
		x = -1 // clamped to 0 by both kernels
	}
	x %= 1 << 29

	diffCase(t, w, a, b, sc, x)
	seedDiffCase(t, w, a, b, posA, posB, k, sc, x)
}

// TestRowLoopCallBoundaries crosses every point where the row loop returns
// to extend and is called again, against the reference: b ending 63–65 and
// 127–129 columns past row 0's band (the profile chunk's edge), a of rowCap
// ±1 rows against a short b (the row cap, with no profile left to build),
// an extension whose first row ends it, an all-N a, x = 0 (a window of one
// column), a window pinned at blen, and a 100 kb identical pair at x = 1000
// (a few hundred calls of rows 2 001 cells wide).
func TestRowLoopCallBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	w := NewWorkspace()
	unit := DefaultScoring()
	mutate := func(s seq.Seq, every int) seq.Seq {
		m := s.Clone()
		for i := every / 2; i < len(m); i += every {
			m[i] = (m[i] + 1) % seq.N
		}
		return m
	}
	base := randSeq(rng, 3*rowCap)
	for j := range base {
		base[j] %= seq.N
	}
	for _, x := range []int{0, 7, 15} {
		for _, past := range []int{63, 64, 65, 127, 128, 129} {
			blen := x + past
			t.Run(fmt.Sprintf("x%d-blen-band+%d", x, past), func(t *testing.T) {
				diffCase(t, w, base[:blen+40], mutate(base[:blen], 29), unit, x)
				diffCase(t, w, base[:blen+40], base[:blen], unit, x)
			})
		}
	}
	for _, alen := range []int{rowCap - 1, rowCap, rowCap + 1, 2*rowCap + 1} {
		t.Run(fmt.Sprintf("alen-%d-short-b", alen), func(t *testing.T) {
			diffCase(t, w, base[:alen], base[:40], unit, 3*rowCap)
			diffCase(t, w, mutate(base[:alen], 17), base[:40], unit, 3*rowCap)
		})
	}
	all := func(c seq.Base, n int) seq.Seq {
		s := make(seq.Seq, n)
		for i := range s {
			s[i] = c
		}
		return s
	}
	for _, tc := range []struct {
		name string
		a, b seq.Seq
		x    int
	}{
		{"first-row-ends", all(seq.A, 50), all(seq.C, 50), 0},
		{"first-row-ends-x1", all(seq.A, 50), all(seq.C, 50), 1},
		{"all-n-a", all(seq.N, 300), base[:300], 15},
		{"x0-one-column", base[:500], base[:500], 0},
		{"x0-mutated", base[:500], mutate(base[:500], 11), 0},
		{"window-at-blen", base[:600], base[:100], 20},
		{"window-at-blen-mutated", mutate(base[:600], 13), base[:100], 20},
	} {
		t.Run(tc.name, func(t *testing.T) { diffCase(t, w, tc.a, tc.b, unit, tc.x) })
	}

	t.Run("100kb-x1000", func(t *testing.T) {
		long := randSeq(rng, 100_000)
		for j := range long {
			long[j] %= seq.N
		}
		want := extendRightRef(long, long, unit, 1000, nil)
		forLeaves(func(l rowLeaf) {
			for _, rev := range []bool{false, true} {
				if got := w.extend(long, long, unit, 1000, rev); got != want {
					t.Fatalf("%s leaf, rev=%v: workspace %+v, reference %+v", l.name, rev, got, want)
				}
			}
		})
	})
}

// TestBuildProfileMatchesGo holds the AVX2 profile build to the Go one:
// every column of all five rows, both walk directions, ranges of every
// length mod 8 at every offset, out-of-alphabet codes included.
func TestBuildProfileMatchesGo(t *testing.T) {
	if !seq.HasAVX2() {
		t.Skip("no AVX2 on this machine")
	}
	defer func(saved bool) { useAVX2 = saved }(useAVX2)
	rng := rand.New(rand.NewSource(14))
	sc := Scoring{Match: 3, Mismatch: -2, Gap: -5}
	goW, avxW := NewWorkspace(), NewWorkspace()
	for iter := 0; iter < 2000; iter++ {
		b := randSeq(rng, 1+rng.Intn(200))
		for j := range b {
			if rng.Intn(50) == 0 {
				b[j] = seq.Base(5 + rng.Intn(250))
			}
		}
		from := 1 + rng.Intn(len(b))
		to := from + rng.Intn(len(b)-from+1)
		rev := iter%2 == 1
		for _, c := range []struct {
			w    *Workspace
			avx2 bool
		}{{goW, false}, {avxW, true}} {
			useAVX2 = c.avx2
			c.w.ensure(sc, len(b))
			c.w.buildProfile(b, rev, from, to)
		}
		for c := seq.Base(0); c < seq.NumBases; c++ {
			g, v := goW.profRow(c)[from:to+1], avxW.profRow(c)[from:to+1]
			if !slices.Equal(g, v) {
				t.Fatalf("row %d, columns [%d, %d] of %d, rev=%v:\n go   %v\n avx2 %v", c, from, to, len(b), rev, g, v)
			}
		}
	}
}
