package align

import (
	"fmt"

	"gnbody/internal/seq"
)

// traceRow snapshots one DP row's window for traceback.
type traceRow struct {
	lo   int
	vals []int // vals[j-lo] = score at column j (negInf = pruned)
}

func (tr traceRow) at(j int) int {
	if j < tr.lo || j >= tr.lo+len(tr.vals) {
		return negInf
	}
	return tr.vals[j-tr.lo]
}

// ExtendRightTrace is ExtendRight plus the edit transcript of the best
// extension: the reference kernel run with row capture. It retains every
// live DP cell (memory proportional to the work, still pruning-bounded),
// so use it for reporting, not in the hot path.
func ExtendRightTrace(a, b seq.Seq, sc Scoring, x int) (Extension, Cigar) {
	var rows []traceRow
	ext := extendRightRef(a, b, sc, x, &rows)
	// Traceback from the best cell to (0,0).
	var c Cigar
	i, j := ext.AExt, ext.BExt
	for i > 0 || j > 0 {
		v := rows[i].at(j)
		switch {
		case i > 0 && j > 0 && rows[i-1].at(j-1) != negInf &&
			v == rows[i-1].at(j-1)+sub(sc, a[i-1], b[j-1]):
			c = c.add(column(a[i-1], b[j-1]), 1)
			i--
			j--
		case i > 0 && rows[i-1].at(j) != negInf && v == rows[i-1].at(j)+sc.Gap:
			c = c.add(OpIns, 1)
			i--
		case j > 0 && rows[i].at(j-1) != negInf && v == rows[i].at(j-1)+sc.Gap:
			c = c.add(OpDel, 1)
			j--
		default:
			// Invariant: a live cell holds the max of its live moves, and each is tried above.
			panic(fmt.Sprintf("align: broken traceback at (%d,%d)", i, j))
		}
	}
	return ext, c.reverse()
}

// SeedExtendTrace is SeedExtend plus the full edit transcript of the
// reported alignment (left extension + seed columns + right extension).
func SeedExtendTrace(a, b seq.Seq, posA, posB, k int, sc Scoring, x int) (Result, Cigar, error) {
	seed, err := seedScore(a, b, posA, posB, k, sc)
	if err != nil {
		return Result{}, nil, err
	}
	right, rc := ExtendRightTrace(a[posA+k:], b[posB+k:], sc, x)
	left, lc := ExtendRightTrace(reverse(a[:posA]), reverse(b[:posB]), sc, x)
	// The left extension ran on reversed prefixes: its transcript reads
	// backward.
	var c Cigar
	for i := len(lc) - 1; i >= 0; i-- {
		c = c.add(lc[i].Op, lc[i].Len)
	}
	for j := 0; j < k; j++ {
		c = c.add(column(a[posA+j], b[posB+j]), 1)
	}
	for _, op := range rc {
		c = c.add(op.Op, op.Len)
	}
	return seeded(posA, posB, k, seed, left, right), c, nil
}
