package align

import "gnbody/internal/seq"

// useAVX2 selects the row leaf Workspace.extend calls: extendRowAVX2 when
// seq.HasAVX2 — the CPU has AVX2 and the OS saves the YMM registers — and
// extendRow otherwise. It is decided once, here; tests flip it to run both
// leaves.
var useAVX2 = seq.HasAVX2()

// extendRowAVX2 is extendRow eight columns at a time (row_amd64.s), with
// the gap taken from ramp (gapRamp.set). Same contract: row holds the row
// above on entry and this row on return, and the result is the same
// (rowBest, top) — bit for bit, which TestExtendRowMatchesCells and the
// differential battery check against the same oracles as the Go leaf.
//
// Per block of eight columns, t = max(p+gap, diag+sub) is one vector, with
// diag the row above shifted up a lane. The carried chain u = max(u+gap, t)
// becomes a log-step prefix scan: shift by 1, 2 and 4 lanes adding 1, 2 and
// 4 gaps, then a max with the carried u plus (1..8)·gap. The running best is
// a prefix max of u over the block maxed with the incoming best — just the
// incoming best unless some u beats it, so only such a block computes it —
// and the cell is stored as u where u+x reaches that best, negInf32
// elsewhere. Three facts make this the scalar loop's result exactly:
//   - the low lanes a shift repeats only meet themselves plus a negative
//     gap, and max is idempotent, so they change nothing;
//   - testing u+x against the best including u itself is the scalar's test
//     against the best before it: if u raised the best, u+x >= u because
//     x >= 0, and the scalar's u+x >= best holds as u > best;
//   - the first lane equal to the block's new best is where the scalar's
//     last strict rise in the block happened, so the last block that raised
//     the best gives top.
//
// Values stay in int32: the scans reach at most 9·mag below negInf32 (eight
// gaps and one score, mag the largest score magnitude), and fitsInt32 with
// at least one row caps mag at (2^29-1)/3, so nothing drops below -2^31+2
// (TestRowLeafGuards runs that edge). The partial last block loads and
// stores through VPMASKMOVD, so the leaf touches nothing past len(row); its
// lanes past the row enter with t = negInf32, which keeps them from raising
// the best as long as best >= 0: the empty extension scores 0.
//
//go:noescape
func extendRowAVX2(row, sub []int32, best, x int32, ramp *gapRamp) (rowBest int32, top int)
