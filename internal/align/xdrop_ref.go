package align

import (
	"slices"

	"gnbody/internal/seq"
)

// The reference X-drop kernel: the straightforward implementation the
// Workspace kernel is verified against, kept exactly as written. It
// allocates full-width int rows per call and tests window membership per
// cell — naive, and obviously faithful to the recurrence. The differential
// property test and fuzz target pin the optimised kernel to it bit for bit
// (Score, AExt, BExt, Cells); it also serves as the fallback for scoring
// magnitudes that could overflow the workspace's int32 rows, and, with
// row capture, as the traced kernel behind ExtendRightTrace.

// extendRightRef performs gapped X-drop extension aligning prefixes of a
// and b outward from offset 0 (Zhang et al. [25]): standard banded DP where
// any cell scoring more than x below the best seen so far is pruned, and
// the extension terminates when a whole row has been pruned. When rows is
// not nil, each computed row's window is appended to it for traceback.
func extendRightRef(a, b seq.Seq, sc Scoring, x int, rows *[]traceRow) Extension {
	if x < 0 {
		x = 0
	}
	best, bestI, bestJ := 0, 0, 0
	cells := 0

	// Row 0: gaps in a only.
	lo, hi := 0, 0 // inclusive window of live columns in the current row
	prev := make([]int, len(b)+1)
	prev[0] = 0
	for j := 1; j <= len(b); j++ {
		s := j * sc.Gap
		if s < best-x {
			break
		}
		prev[j] = s
		hi = j
	}
	if rows != nil {
		*rows = append(*rows, traceRow{lo: 0, vals: slices.Clone(prev[:hi+1])})
	}
	cur := make([]int, len(b)+1)

	plo, phi := lo, hi
	for i := 1; i <= len(a); i++ {
		// Columns reachable this row: [plo, phi+1] clipped to b.
		lo = plo
		hi = phi + 1
		if hi > len(b) {
			hi = len(b)
		}
		rowBest := negInf
		for j := lo; j <= hi; j++ {
			v := negInf
			if j >= plo && j <= phi { // up: gap in b
				if w := prev[j] + sc.Gap; w > v {
					v = w
				}
			}
			if j-1 >= plo && j-1 <= phi { // diagonal
				if w := prev[j-1] + sub(sc, a[i-1], b[j-1]); w > v {
					v = w
				}
			}
			if j > lo { // left: gap in a
				if w := cur[j-1] + sc.Gap; w > v {
					v = w
				}
			}
			cells++
			if v < best-x {
				v = negInf
			}
			cur[j] = v
			if v > rowBest {
				rowBest = v
			}
			if v > best {
				best, bestI, bestJ = v, i, j
			}
		}
		if rowBest == negInf {
			break // X-drop termination: every live cell pruned
		}
		if rows != nil {
			*rows = append(*rows, traceRow{lo: lo, vals: slices.Clone(cur[lo : hi+1])})
		}
		// Shrink the window to live cells.
		for lo <= hi && cur[lo] == negInf {
			lo++
		}
		for hi >= lo && cur[hi] == negInf {
			hi--
		}
		prev, cur = cur, prev
		plo, phi = lo, hi
	}
	return Extension{Score: best, AExt: bestI, BExt: bestJ, Cells: cells}
}

// reverse returns s reversed (not complemented): the reference left
// extension runs the right-extension kernel on reversed copies.
func reverse(s seq.Seq) seq.Seq {
	out := make(seq.Seq, len(s))
	for i, b := range s {
		out[len(s)-1-i] = b
	}
	return out
}

// seedExtendRef is SeedExtend built on the reference kernel, materialising
// reversed prefixes for the left extension.
func seedExtendRef(a, b seq.Seq, posA, posB, k int, sc Scoring, x int) (Result, error) {
	seed, err := seedScore(a, b, posA, posB, k, sc)
	if err != nil {
		return Result{}, err
	}
	right := extendRightRef(a[posA+k:], b[posB+k:], sc, x, nil)
	left := extendRightRef(reverse(a[:posA]), reverse(b[:posB]), sc, x, nil)
	return seeded(posA, posB, k, seed, left, right), nil
}
