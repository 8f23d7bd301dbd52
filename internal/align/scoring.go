// Package align implements pairwise sequence alignment: the X-drop
// seed-and-extend kernel the paper uses for every task (SeqAn's X-drop
// [25], reimplemented from the Zhang-Schwartz-Wagner-Miller algorithm),
// and a cost model used by the performance simulator in place of running
// the kernel at 32K-core scale.
package align

import (
	"fmt"

	"gnbody/internal/seq"
)

// Scoring is a linear-gap scoring scheme. Defaults follow BELLA
// (match +1, mismatch -1, gap -1). The ambiguous base N never matches
// anything, including another N.
type Scoring struct {
	Match    int // reward, must be > 0
	Mismatch int // penalty, must be < 0
	Gap      int // penalty for insertion or deletion, must be < 0
}

// DefaultScoring returns the BELLA defaults.
func DefaultScoring() Scoring { return Scoring{Match: 1, Mismatch: -1, Gap: -1} }

// sub returns the substitution score for aligning bases x and y.
// N is always a mismatch: a low-confidence call carries no evidence.
func sub(sc Scoring, x, y seq.Base) int {
	if x == y && x < seq.N {
		return sc.Match
	}
	return sc.Mismatch
}

// Validate rejects schemes the DP recurrences do not support.
func (s Scoring) Validate() error {
	if s.Match <= 0 {
		return fmt.Errorf("align: match reward must be positive, got %d", s.Match)
	}
	if s.Mismatch >= 0 {
		return fmt.Errorf("align: mismatch penalty must be negative, got %d", s.Mismatch)
	}
	if s.Gap >= 0 {
		return fmt.Errorf("align: gap penalty must be negative, got %d", s.Gap)
	}
	return nil
}
