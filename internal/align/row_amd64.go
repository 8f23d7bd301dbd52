package align

import "gnbody/internal/seq"

// useAVX2 selects the row loop Workspace.extend calls: extendRowsAVX2 when
// seq.HasAVX2 — the CPU has AVX2 and the OS saves the YMM registers — and
// extendRows otherwise. It is decided once, here; tests flip it to run both
// loops.
var useAVX2 = seq.HasAVX2()

// extendRowsAVX2 is extendRows with each row computed eight columns at a
// time (row_amd64.s): the same contract, the same four exits, and the same
// state on return — bit for bit, which the differential battery checks
// against the same oracles as the Go loop. The best, best-x, the gap
// multiples and the shuffle indices stay in registers from row to row.
//
// Per block of eight columns, t = max(p+gap, diag+sub) is one vector, with
// diag the row above shifted up a lane. The carried chain u = max(u+gap, t)
// becomes a log-step prefix scan: shift by 1, 2 and 4 lanes adding 1, 2 and
// 4 gaps, then a max with the carried u plus (1..8)·gap. A cell is stored as
// u where u+x reaches the running best, negInf32 elsewhere. A block where
// no u beats the best prunes against the incoming best; one that does
// computes the running best only there. Three facts make this the scalar
// loop's result exactly:
//   - the low lanes a shift repeats only meet themselves plus a negative
//     gap, and max is idempotent, so they change nothing;
//   - testing u+x against the best including u itself is the scalar's test
//     against the best before it: if u raised the best, u+x >= u because
//     x >= 0, and the scalar's u+x >= best holds as u > best;
//   - the first lane equal to the block's new best is where the scalar's
//     last strict rise in the block happened, so the last block that raised
//     the best gives bestJ.
//
// Blocks are aligned to the slab's column 0 and always whole, so each row
// loads exactly the vectors the row above stored, and store forwarding
// holds. A row starts at the block holding the row above's lo, known a row
// early; the columns left of its own lo come out pruned. Its last block
// forces t to negInf32 past hi and stores negInf32 there and in the whole
// next block, which is what the next row finds above column hi+1. The next
// window comes from the prune masks: the first block with a kept lane, and
// the last (read back from where the row just stored it if the last block
// kept none). A kept cell holds u >= best-x, and best >= 0 with x < 2^29
// puts that above negInf32, so these are the cells extendRows' shrink
// loops stop at.
//
// Values stay in int32: the scans reach at most 9·mag below negInf32 (eight
// gaps and one score, mag the largest score magnitude), and fitsInt32 with
// at least one row caps mag at (2^29-1)/3, so nothing drops below -2^31+2
// (TestRowLeafGuards runs that edge). Lanes past hi enter with t =
// negInf32, which keeps them from raising the best as long as best >= 0:
// the empty extension scores 0.
//
//go:noescape
func extendRowsAVX2(st *rowsState)

// buildProfileAVX2 fills len(bases) profile columns, a multiple of eight,
// of the five profile rows: row c from prof[c·stride:]. bases holds the
// columns' bases in memory order, walked backward when rev. Per block of
// eight columns it widens the bases to lanes, clamps them to N, and looks
// each row's scores up with one VPERMD from sub's padded row.
//
//go:noescape
func buildProfileAVX2(prof []int32, stride int, bases seq.Seq, rev bool, sub *subTable)
