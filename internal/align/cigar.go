package align

import (
	"fmt"
	"strings"

	"gnbody/internal/seq"
)

// Cigar operations, extended-CIGAR style: '=' match, 'X' mismatch,
// 'I' insertion (consumes a only), 'D' deletion (consumes b only).
const (
	OpMatch    = '='
	OpMismatch = 'X'
	OpIns      = 'I'
	OpDel      = 'D'
)

// CigarOp is one run-length-encoded edit operation.
type CigarOp struct {
	Op  byte
	Len int
}

// Cigar is an edit transcript between two aligned regions — the "edits
// required to make the overlapping subregions identical" (paper §2).
type Cigar []CigarOp

// String renders the transcript ("120=1X30=2D8=").
func (c Cigar) String() string {
	var sb strings.Builder
	for _, op := range c {
		fmt.Fprintf(&sb, "%d%c", op.Len, op.Op)
	}
	return sb.String()
}

// add appends n of op, merging with the tail run.
func (c Cigar) add(op byte, n int) Cigar {
	if last := len(c) - 1; last >= 0 && c[last].Op == op {
		c[last].Len += n
		return c
	}
	return append(c, CigarOp{Op: op, Len: n})
}

// column is the op that aligns base x against base y: N never matches.
func column(x, y seq.Base) byte {
	if x == y && x < seq.N {
		return OpMatch
	}
	return OpMismatch
}

// reverse flips the transcript in place (traceback emits ops backward).
func (c Cigar) reverse() Cigar {
	for i, j := 0, len(c)-1; i < j; i, j = i+1, j-1 {
		c[i], c[j] = c[j], c[i]
	}
	return c
}

// Counts tallies consumed bases and matches.
func (c Cigar) Counts() (aLen, bLen, matches, alnLen int) {
	for _, op := range c {
		alnLen += op.Len
		switch op.Op {
		case OpMatch:
			matches += op.Len
			aLen += op.Len
			bLen += op.Len
		case OpMismatch:
			aLen += op.Len
			bLen += op.Len
		case OpIns:
			aLen += op.Len
		case OpDel:
			bLen += op.Len
		}
	}
	return
}

// Validate checks internal consistency against the sequences it claims to
// align: op lengths positive, consumed lengths matching, ops legal.
func (c Cigar) Validate(a, b seq.Seq) error {
	ai, bi := 0, 0
	for k, op := range c {
		if op.Len <= 0 {
			return fmt.Errorf("align: cigar op %d has length %d", k, op.Len)
		}
		switch op.Op {
		case OpMatch, OpMismatch:
			for j := 0; j < op.Len; j++ {
				if ai >= len(a) || bi >= len(b) {
					return fmt.Errorf("align: cigar overruns sequences at op %d", k)
				}
				if column(a[ai], b[bi]) != op.Op {
					return fmt.Errorf("align: cigar op %d claims %c at a[%d],b[%d]", k, op.Op, ai, bi)
				}
				ai++
				bi++
			}
		case OpIns:
			ai += op.Len
		case OpDel:
			bi += op.Len
		default:
			return fmt.Errorf("align: cigar op %d has unknown code %q", k, op.Op)
		}
	}
	if ai != len(a) || bi != len(b) {
		return fmt.Errorf("align: cigar consumes (%d,%d) of (%d,%d)", ai, bi, len(a), len(b))
	}
	return nil
}

// Score recomputes the transcript's score under sc.
func (c Cigar) Score(sc Scoring) int {
	s := 0
	for _, op := range c {
		switch op.Op {
		case OpMatch:
			s += op.Len * sc.Match
		case OpMismatch:
			s += op.Len * sc.Mismatch
		case OpIns, OpDel:
			s += op.Len * sc.Gap
		}
	}
	return s
}
