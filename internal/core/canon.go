package core

import (
	"cmp"
	"slices"

	"gnbody/internal/seq"
)

// Mirror returns the hit seen from the other read's perspective: A and B
// swap, and the aligned extents swap with them. For an opposite-strand hit
// the recorded B coordinates live on revcomp(B), so the swapped form
// reverse-complements both sides — new-A extents are the old B extents
// mapped back to B's forward strand, and new-B extents are the old A
// extents mapped onto revcomp(A). lenA and lenB are the read lengths of
// the original h.A and h.B. Mirror is an involution: h.Mirror().Mirror()
// (with the lengths swapped accordingly) reproduces h.
func (h Hit) Mirror(lenA, lenB int32) Hit {
	m := Hit{A: h.B, B: h.A, Score: h.Score, RC: h.RC}
	if !h.RC {
		m.AStart, m.AEnd = h.BStart, h.BEnd
		m.BStart, m.BEnd = h.AStart, h.AEnd
		return m
	}
	m.AStart, m.AEnd = lenB-h.BEnd, lenB-h.BStart
	m.BStart, m.BEnd = lenA-h.AEnd, lenA-h.AStart
	return m
}

// CanonicalizeHits rewrites hits into the canonical orientation (A < B,
// mirroring the extents of any swapped record), sorts the copy in place by
// pair key and collapses symmetric duplicates: of the records describing
// one unordered pair it keeps the first under the whole-record order
// (Score descending, then RC, AStart, BStart, AEnd, BEnd ascending). The
// order is total, so the result is the same for any input permutation or
// orientation mix, which is what makes downstream TSV emission and
// string-graph ingestion independent of which driver (or which rank)
// produced each hit. The output holds one hit per pair in ascending (A, B)
// order. lens is the replicated read-length vector.
func CanonicalizeHits(hs []Hit, lens []int32) []Hit {
	out := make([]Hit, 0, len(hs))
	var maxA seq.ReadID
	for _, h := range hs {
		if h.A > h.B {
			h = h.Mirror(lens[h.A], lens[h.B])
		}
		maxA = max(maxA, h.A)
		out = append(out, h)
	}
	// Group by A (no per-hit index), then order each (small) group by the
	// rest of the key, so the keeper leads its pair's run.
	start := GroupBy(out, int(maxA)+1, func(h Hit) int { return int(h.A) })
	for id := 0; id+1 < len(start); id++ {
		if run := out[start[id]:start[id+1]]; len(run) > 1 {
			slices.SortFunc(run, func(a, b Hit) int {
				if a.B != b.B {
					return cmp.Compare(a.B, b.B)
				}
				if a.Score != b.Score {
					return cmp.Compare(b.Score, a.Score) // best first
				}
				return cmpExtents(a, b)
			})
		}
	}
	return slices.CompactFunc(out, func(a, b Hit) bool { return a.A == b.A && a.B == b.B })
}

// GroupBy permutes xs in place into ascending key order and returns the
// group bounds: the elements with key k are xs[start[k]:start[k+1]]. A
// counting pass sizes the groups; then each slot's occupant is carried to
// its group, picking up the element it displaces, so every element moves
// once and no scratch copy is made (two int32 per key). Every key must lie
// in [0, n).
func GroupBy[T any](xs []T, n int, key func(T) int) []int32 {
	start := make([]int32, n+1)
	for _, x := range xs {
		start[key(x)+1]++
	}
	for k := 1; k <= n; k++ {
		start[k] += start[k-1]
	}
	next := slices.Clone(start[:n])
	for k := range next {
		for next[k] < start[k+1] {
			x := xs[next[k]]
			for d := key(x); d != k; d = key(x) {
				xs[next[d]], x = x, xs[next[d]]
				next[d]++
			}
			xs[next[k]] = x
			next[k]++
		}
	}
	return start
}
