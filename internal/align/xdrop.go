package align

import (
	"fmt"

	"gnbody/internal/seq"
)

// negInf is far enough below any reachable score to act as -infinity
// without overflowing when a gap penalty is added.
const negInf = int(^uint(0)>>1)/-4 - 1

// Extension is the result of a one-directional X-drop extension.
type Extension struct {
	Score int // best extension score (>= 0; empty extension scores 0)
	AExt  int // bases of a consumed by the best extension
	BExt  int // bases of b consumed by the best extension
	Cells int // DP cells evaluated — the kernel's work measure
}

// ExtendRight performs gapped X-drop extension aligning prefixes of a and b
// outward from offset 0 (Zhang et al. [25]): standard banded DP where any
// cell scoring more than x below the best seen so far is pruned, and the
// extension terminates when a whole row has been pruned. This is the
// early-termination behaviour §4.2 identifies as a major source of task
// cost variability: false-positive candidates die within a few rows, while
// true overlaps extend across the whole overlap region.
//
// This convenience form allocates a transient Workspace per call; the hot
// path holds one Workspace per rank and calls its methods instead.
func ExtendRight(a, b seq.Seq, sc Scoring, x int) Extension {
	var w Workspace
	return w.extend(a, b, sc, x, false)
}

// Result is a completed seed-and-extend pairwise alignment between a pair
// of reads (Figure 1 of the paper): the seed region is held fixed and the
// alignment is extended backward and forward.
type Result struct {
	Score  int
	AStart int // aligned region of a: [AStart, AEnd)
	AEnd   int
	BStart int // aligned region of b: [BStart, BEnd)
	BEnd   int
	Cells  int // total DP cells evaluated in both extensions
}

// SeedExtend aligns a and b from the k-long seed anchored at a[posA] and
// b[posB]: the seed is scored by direct comparison (sequencing errors can
// land inside it), then gapped X-drop extensions run right of the seed and
// left of it. x is the X-drop parameter.
//
// This convenience form allocates a transient Workspace per call; the hot
// path holds one Workspace per rank and calls Workspace.SeedExtend.
func SeedExtend(a, b seq.Seq, posA, posB, k int, sc Scoring, x int) (Result, error) {
	var w Workspace
	return w.SeedExtend(a, b, posA, posB, k, sc, x)
}

// seedScore is the seed frame every SeedExtend shares: it checks the
// scheme and the seed's range and scores the seed's k columns by direct
// comparison. The caller runs the two extensions and joins them with
// seeded.
func seedScore(a, b seq.Seq, posA, posB, k int, sc Scoring) (int, error) {
	if err := sc.Validate(); err != nil {
		return 0, err
	}
	if posA < 0 || posB < 0 || posA+k > len(a) || posB+k > len(b) || k <= 0 {
		return 0, fmt.Errorf("align: seed [%d,%d)+%d out of range for lengths %d,%d",
			posA, posB, k, len(a), len(b))
	}
	s := 0
	for j := 0; j < k; j++ {
		s += sub(sc, a[posA+j], b[posB+j])
	}
	return s, nil
}

// seeded joins a seed of score seed with the extensions left and right of
// it into the aligned regions.
func seeded(posA, posB, k, seed int, left, right Extension) Result {
	return Result{
		Score:  seed + right.Score + left.Score,
		AStart: posA - left.AExt,
		AEnd:   posA + k + right.AExt,
		BStart: posB - left.BExt,
		BEnd:   posB + k + right.BExt,
		Cells:  right.Cells + left.Cells,
	}
}
