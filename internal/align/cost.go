package align

import "time"

// CostModel converts alignment work into time for the performance
// simulator. At 32K simulated cores and 87M tasks the real kernel cannot
// run inside every simulated rank, so the simulator charges each task
// a modeled duration instead. The model mirrors §4.2's cost taxonomy:
//
//   - a fixed per-task overhead (data structure traversal, kernel
//     invocation — the "Computation (Overhead)" series of Figures 3-4, 13),
//   - a per-DP-cell cost for the extension work. True overlaps extend
//     across the overlap region (cells ≈ overlap × band); false positives
//     terminate early (cells ≈ FPCells, a small constant set by X).
type CostModel struct {
	PerTask time.Duration // fixed invocation overhead per task
	PerCell time.Duration // DP cell evaluation cost
	Band    int           // effective antidiagonal band width of the kernel
	FPCells int           // cells evaluated before a false positive dies
}

// TaskCells estimates DP cells for one seed-and-extend task. overlapLen is
// the extension extent: the true-overlap length for genuine pairs, or the
// repeat-copy length for false-positive candidates (a repeat-seeded
// alignment extends through the repeat before X-drop terminates — §4.2's
// "speed of false positive detection" variability). FPCells floors the
// cost at the minimum X-drop shutdown work.
func (m CostModel) TaskCells(overlapLen int) int {
	c := overlapLen * m.Band
	if c < m.FPCells {
		c = m.FPCells
	}
	return c
}

// TaskCost converts a task into modeled compute time.
func (m CostModel) TaskCost(overlapLen int) time.Duration {
	return m.PerTask + time.Duration(m.TaskCells(overlapLen))*m.PerCell
}
