package align

import (
	"math/rand"
	"testing"
	"time"

	"gnbody/internal/seq"
)

func s(t *testing.T, x string) seq.Seq {
	t.Helper()
	q, err := seq.FromString(x)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestScoringValidate(t *testing.T) {
	if err := DefaultScoring().Validate(); err != nil {
		t.Errorf("default scoring invalid: %v", err)
	}
	bad := []Scoring{
		{Match: 0, Mismatch: -1, Gap: -1},
		{Match: 1, Mismatch: 0, Gap: -1},
		{Match: 1, Mismatch: -1, Gap: 0},
	}
	for i, sc := range bad {
		if err := sc.Validate(); err == nil {
			t.Errorf("scheme %d accepted", i)
		}
	}
}

// sw is the Smith-Waterman local alignment score of a and b (exact
// O(len(a)·len(b)) dynamic programming, paper §2 [19]): the optimum no
// seed-and-extend alignment may beat. It is 0 when no positive-scoring
// local alignment exists.
func sw(a, b seq.Seq, sc Scoring) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	best := 0
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			v := max(prev[j-1]+sub(sc, a[i-1], b[j-1]), prev[j]+sc.Gap, cur[j-1]+sc.Gap, 0)
			cur[j] = v
			best = max(best, v)
		}
		prev, cur = cur, prev
	}
	return best
}

func TestSWKnown(t *testing.T) {
	sc := DefaultScoring()
	cases := []struct {
		a, b string
		want int
	}{
		{"ACGT", "ACGT", 4},
		{"TTTACGTTTT", "GGGACGGGG", 3}, // local ACG
		{"AAAA", "TTTT", 0},            // nothing positive (A-T mismatch; T matches... a=AAAA has no T)
		{"", "ACG", 0},
	}
	for _, tc := range cases {
		if got := sw(s(t, tc.a), s(t, tc.b), sc); got != tc.want {
			t.Errorf("SW(%q,%q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestNNeverMatches(t *testing.T) {
	sc := DefaultScoring()
	if got := sw(s(t, "NNNN"), s(t, "NNNN"), sc); got != 0 {
		t.Errorf("SW(NNNN,NNNN) = %d, want 0 (N must not match N)", got)
	}
}

func TestExtendRightExact(t *testing.T) {
	sc := DefaultScoring()
	a := s(t, "ACGTACGTAC")
	ext := ExtendRight(a, a.Clone(), sc, 10)
	if ext.Score != len(a)*sc.Match {
		t.Errorf("exact extension score = %d, want %d", ext.Score, len(a))
	}
	if ext.AExt != len(a) || ext.BExt != len(a) {
		t.Errorf("extents = (%d,%d), want (%d,%d)", ext.AExt, ext.BExt, len(a), len(a))
	}
	if ext.Cells <= 0 {
		t.Error("Cells not counted")
	}
}

func TestExtendRightEmpty(t *testing.T) {
	ext := ExtendRight(nil, nil, DefaultScoring(), 5)
	if ext.Score != 0 || ext.AExt != 0 || ext.BExt != 0 {
		t.Errorf("empty extension = %+v", ext)
	}
	// One side empty: extension cannot score above 0.
	ext = ExtendRight(s(t, "ACGT"), nil, DefaultScoring(), 5)
	if ext.Score != 0 {
		t.Errorf("one-side-empty score = %d, want 0", ext.Score)
	}
}

func TestExtendRightEarlyTermination(t *testing.T) {
	sc := DefaultScoring()
	// 20 matching bases then pure garbage: with x=5 the extension must
	// stop soon after the junk starts.
	common := "ACGTACGTACGTACGTACGT"
	a := s(t, common+"AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA")
	b := s(t, common+"TTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTT")
	ext := ExtendRight(a, b, sc, 5)
	if ext.Score != len(common) {
		t.Errorf("score = %d, want %d", ext.Score, len(common))
	}
	full := ExtendRight(a, a.Clone(), sc, 5)
	if ext.Cells >= full.Cells {
		t.Errorf("early termination did not save work: %d >= %d cells", ext.Cells, full.Cells)
	}
}

func TestExtendRightGap(t *testing.T) {
	sc := DefaultScoring()
	// b has one extra base: 12 matches - 1 gap = 11 with a generous X.
	a := s(t, "ACGTACGTACGT")
	b := s(t, "ACGTACTGTACGT") // insertion of T after position 6? construct: ACGTAC|T|GTACGT
	ext := ExtendRight(a, b, sc, 20)
	if ext.Score != 12*sc.Match+sc.Gap {
		t.Errorf("gapped extension score = %d, want %d", ext.Score, 12*sc.Match+sc.Gap)
	}
}

func TestSeedExtendExactOverlap(t *testing.T) {
	sc := DefaultScoring()
	// Two reads overlapping in a 30-base region, dovetail style.
	g := s(t, "AACCGGTTACGTACGTAACCGGTTACGTAC")
	pre := s(t, "TTTTTTTTTT")
	post := s(t, "GGGGGGGGGG")
	a := append(pre.Clone(), g...)  // overlap is a[10:40]
	b := append(g.Clone(), post...) // overlap is b[0:30]
	res, err := SeedExtend(a, b, 10+4, 4, 8, sc, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score < len(g)*sc.Match-2 {
		t.Errorf("score = %d, want ≈ %d", res.Score, len(g))
	}
	if res.AStart > 10 || res.AEnd < 40 || res.BStart > 0 || res.BEnd < 30 {
		t.Errorf("aligned region a[%d,%d) b[%d,%d), want ⊇ a[10,40) b[0,30)", res.AStart, res.AEnd, res.BStart, res.BEnd)
	}
}

func TestSeedExtendErrors(t *testing.T) {
	a := s(t, "ACGTACGT")
	if _, err := SeedExtend(a, a, -1, 0, 4, DefaultScoring(), 10); err == nil {
		t.Error("negative posA accepted")
	}
	if _, err := SeedExtend(a, a, 6, 0, 4, DefaultScoring(), 10); err == nil {
		t.Error("seed past end of a accepted")
	}
	if _, err := SeedExtend(a, a, 0, 0, 0, DefaultScoring(), 10); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := SeedExtend(a, a, 0, 0, 4, Scoring{}, 10); err == nil {
		t.Error("invalid scoring accepted")
	}
}

// Property: a seed-and-extend alignment is a local alignment, so its score
// never exceeds the Smith-Waterman optimum — and with a huge X on an exact
// repeat of the same string through the seed, it achieves it.
func TestSeedExtendBoundedBySW(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sc := DefaultScoring()
	for trial := 0; trial < 60; trial++ {
		n := 12 + rng.Intn(40)
		a := make(seq.Seq, n)
		for i := range a {
			a[i] = seq.Base(rng.Intn(4))
		}
		// b: mutated copy of a
		b := a.Clone()
		for m := 0; m < n/6; m++ {
			b[rng.Intn(n)] = seq.Base(rng.Intn(4))
		}
		// find an exact common k-mer to seed (fall back: skip trial).
		k := 5
		posA, posB := -1, -1
	outer:
		for i := 0; i+k <= n; i++ {
			for j := 0; j+k <= n; j++ {
				eq := true
				for d := 0; d < k; d++ {
					if a[i+d] != b[j+d] {
						eq = false
						break
					}
				}
				if eq {
					posA, posB = i, j
					break outer
				}
			}
		}
		if posA < 0 {
			continue
		}
		res, err := SeedExtend(a, b, posA, posB, k, sc, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if opt := sw(a, b, sc); res.Score > opt {
			t.Fatalf("trial %d: xdrop score %d exceeds SW optimum %d", trial, res.Score, opt)
		}
	}
}

func TestSeedExtendIdenticalAchievesMax(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sc := DefaultScoring()
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(50)
		a := make(seq.Seq, n)
		for i := range a {
			a[i] = seq.Base(rng.Intn(4))
		}
		k := 4
		pos := rng.Intn(n - k + 1)
		res, err := SeedExtend(a, a.Clone(), pos, pos, k, sc, 10000)
		if err != nil {
			t.Fatal(err)
		}
		if res.Score != n*sc.Match {
			t.Fatalf("identical strings, seed at %d: score %d, want %d", pos, res.Score, n)
		}
		if res.AStart != 0 || res.AEnd != n || res.BStart != 0 || res.BEnd != n {
			t.Fatalf("identical strings: region a[%d,%d) b[%d,%d), want full", res.AStart, res.AEnd, res.BStart, res.BEnd)
		}
	}
}

func TestCostModel(t *testing.T) {
	m := CostModel{PerTask: 2 * time.Microsecond, PerCell: 2 * time.Nanosecond, Band: 31, FPCells: 1500}
	// A repeat-seeded false positive (short extension) is far cheaper than
	// a long true overlap.
	fp := m.TaskCost(400)
	tp := m.TaskCost(10000)
	if fp >= tp {
		t.Errorf("short FP cost %v should be below long true-overlap cost %v", fp, tp)
	}
	if m.TaskCells(0) != m.FPCells {
		t.Errorf("zero-extent task should cost the FP floor")
	}
	if m.TaskCells(10) != m.FPCells {
		t.Errorf("tiny FP cells = %d, want floor %d", m.TaskCells(10), m.FPCells)
	}
	if m.TaskCells(400) != 400*m.Band {
		t.Errorf("repeat FP cells = %d, want %d", m.TaskCells(400), 400*m.Band)
	}
	// Monotone in extension extent.
	if m.TaskCost(1000) >= m.TaskCost(2000) {
		t.Error("cost not monotone in overlap length")
	}
}

// BenchmarkSeedExtend measures the hot-path configuration: one warm
// workspace reused across tasks, as the drivers run it, with a sub-benchmark
// per row leaf (go, and avx2 where the machine has it). BenchmarkSeedExtendRef
// is the retained reference kernel on the same inputs, so one binary carries
// its own before/after comparison.
func BenchmarkSeedExtend1k(b *testing.B)  { benchSeedExtend(b, 1000, false) }
func BenchmarkSeedExtend10k(b *testing.B) { benchSeedExtend(b, 10000, false) }

func BenchmarkSeedExtendRef1k(b *testing.B)  { benchSeedExtend(b, 1000, true) }
func BenchmarkSeedExtendRef10k(b *testing.B) { benchSeedExtend(b, 10000, true) }

// The Wide variant raises the drop threshold to x=100, the broad-band
// regime where a row is several hundred cells.
func BenchmarkSeedExtendWide10k(b *testing.B) { benchSeedExtendX(b, 10000, 100, false) }

func benchSeedExtend(b *testing.B, n int, ref bool) { benchSeedExtendX(b, n, 15, ref) }

func benchSeedExtendX(b *testing.B, n, x int, ref bool) {
	rng := rand.New(rand.NewSource(1))
	a := make(seq.Seq, n)
	for i := range a {
		a[i] = seq.Base(rng.Intn(4))
	}
	bb := a.Clone()
	for m := 0; m < n/10; m++ {
		bb[rng.Intn(n)] = seq.Base(rng.Intn(4))
	}
	sc := DefaultScoring()
	run := func(b *testing.B) {
		w := NewWorkspace()
		b.ResetTimer()
		var cells int64
		for i := 0; i < b.N; i++ {
			var res Result
			var err error
			if ref {
				res, err = seedExtendRef(a, bb, n/2, n/2, 17, sc, x)
			} else {
				res, err = w.SeedExtend(a, bb, n/2, n/2, 17, sc, x)
			}
			if err != nil {
				b.Fatal(err)
			}
			cells += int64(res.Cells)
		}
		b.ReportMetric(float64(cells)/float64(b.N), "cells/op")
	}
	if ref {
		run(b)
		return
	}
	for _, l := range rowLeaves() {
		b.Run(l.name, func(b *testing.B) {
			defer func(saved bool) { useAVX2 = saved }(useAVX2)
			useAVX2 = l.avx2
			run(b)
		})
	}
}

// BenchmarkExtendRow times one call of each leaf's row loop running 64
// rows, at the row widths of overlap-noisy (~25 cells) and of
// SeedExtendWide10k (~156 cells), so its ns/cell separates the rows' cost
// from the per-extension code around them. The rows are the band of a
// 16 kb pair at 10 % substitutions walked down its diagonal, x setting the
// width, with the whole profile built up front; a call runs while a lasts,
// and a is cut 64 rows past where the call starts. The band starts over at
// the far end or where it dies.
func BenchmarkExtendRow25(b *testing.B)  { benchExtendRow(b, 15) }
func BenchmarkExtendRow156(b *testing.B) { benchExtendRow(b, 100) }

func benchExtendRow(b *testing.B, x int32) {
	const n, rows = 1 << 14, 64
	rng := rand.New(rand.NewSource(1))
	a := randSeq(rng, n)
	for j := range a {
		a[j] %= seq.N
	}
	bb := a.Clone()
	for m := 0; m < n/10; m++ {
		bb[rng.Intn(n)] = seq.Base(rng.Intn(4))
	}
	for _, l := range rowLeaves() {
		b.Run(l.name, func(b *testing.B) {
			w := NewWorkspace()
			w.ensure(DefaultScoring(), n)
			w.buildProfile(bb, false, 1, n)
			st := w.startRows(a, n, x, false)
			st.built = n
			var cells, ran int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if st.i+rows > n || st.lo > st.hi {
					cells, ran = cells+st.cells, ran+st.i
					st = w.startRows(a, n, x, false)
					st.built = n
				}
				st.a = a[:st.i+rows]
				l.rows(&st)
			}
			cells, ran = cells+st.cells, ran+st.i
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cells), "ns/cell")
			b.ReportMetric(float64(cells)/float64(ran), "cells/row")
		})
	}
}
