package align

import (
	"fmt"

	"gnbody/internal/seq"
)

// negInf32 mirrors negInf for the int32 row representation: far enough
// below any reachable score to act as -infinity without overflowing when a
// gap penalty is added.
const negInf32 = int32(-1)<<29 - 1

// Workspace is the reusable scratch of one alignment lane: the DP row and
// the query profile of b, carved from one allocation that grows
// monotonically, the substitution table for the current scoring scheme,
// and a reverse-complement buffer. With a warm workspace, SeedExtend runs
// allocation-free — the property the hot path depends on, since every one
// of the millions of tasks would otherwise churn the allocator (§4.2's
// per-task overhead).
//
// Ownership: one workspace per rank. Every call mutates its buffers, so a
// workspace must never be shared across goroutines; the drivers obtain one
// per rank via core's PerRankExecutor hook. Under the progress contract all
// callbacks of a rank run on that rank's goroutine, so even the stealing
// driver needs no more than the rank's own workspace.
type Workspace struct {
	// slab is the DP row, indexed by column 0..blen, followed by the five
	// rows of the query profile, all of one length (stride): each DP row
	// overwrites its predecessor in place (extendRow).
	//
	// Profile row c, slab[(1+c)·stride:][j], is the substitution score of
	// row base c against the base column j consumes, in walk order (b[j-1]
	// forward, b[blen-j] reversed); row N is the all-mismatch row. An
	// extension builds it in chunks as the band's high-water column
	// advances, so a false positive that dies after a few rows never pays
	// for the far end of b. Column 0 consumes no base; its entries stay 0
	// and only ever meet a negInf32 diagonal.
	slab []int32

	sub  subTable
	ramp gapRamp // for sub's gap
	// subFor is the scheme sub and ramp were built for; the zero Scoring
	// until the first row-kernel extension, whose gap is negative.
	subFor Scoring
	rc     seq.Seq
	stats  KernelStats
}

// subTable is the substitution table, sub[row base][column base], each row
// padded to eight lanes so the AVX2 profile build looks a block of
// columns up in one register.
type subTable [seq.NumBases][8]int32

// gapRamp is (1..8)·gap, the gap multiples the AVX2 leaf adds to a block,
// kept with the workspace so an extension copies them instead of forming
// them.
type gapRamp [8]int32

// set fills the ramp for gap. Only row-kernel inputs reach it, and
// fitsInt32 keeps 8·gap inside int32 for those.
func (g *gapRamp) set(gap int32) {
	for i := range g {
		g[i] = int32(i+1) * gap
	}
}

// KernelStats counts the extensions run on a workspace by the kernel that
// served them, and the DP cells the row kernel swept.
type KernelStats struct {
	RowExts int64 // extensions served by the int32 row kernel
	RefExts int64 // extensions that fell back to the int reference
	Cells   int64 // DP cells swept by the row kernel
}

// TakeStats returns the counters accumulated since the last call and
// resets them — the executors drain per-task deltas through this.
func (w *Workspace) TakeStats() KernelStats {
	s := w.stats
	w.stats = KernelStats{}
	return s
}

// NewWorkspace returns an empty workspace; buffers grow on first use and
// are retained across calls.
func NewWorkspace() *Workspace { return &Workspace{} }

// profChunk is how many columns past the band's edge one profile build
// covers, so the build runs once per chunk of rows, not once per row.
const profChunk = 64

// ensure sizes the row and the profile for a b of length blen and
// refreshes the substitution table when the scoring scheme changed.
func (w *Workspace) ensure(sc Scoring, blen int) {
	if w.stride() < blen+1 {
		// Whole blocks of eight, and a spare one past column blen, for the
		// AVX2 row loop.
		n := max(2*w.stride(), (blen+8)&^7+8, 256)
		w.slab = make([]int32, (1+seq.NumBases)*n)
	}
	if w.subFor != sc {
		for x := 0; x < seq.NumBases; x++ {
			for y := 0; y < seq.NumBases; y++ {
				w.sub[x][y] = int32(sub(sc, seq.Base(x), seq.Base(y)))
			}
		}
		w.ramp.set(int32(sc.Gap))
		w.subFor = sc
	}
}

// stride is the length of the DP row and of each profile row.
func (w *Workspace) stride() int { return len(w.slab) / (1 + seq.NumBases) }

// profRow is profile row c, the scores of row base c by column.
func (w *Workspace) profRow(c seq.Base) []int32 {
	n := w.stride()
	return w.slab[(1+int(c))*n : (2+int(c))*n]
}

// buildProfile fills profile columns [from, to] for b in walk order:
// eight columns a step with buildProfileAVX2 where useAVX2, the rest one
// at a time. The five rows are written side by side from hoisted
// subslices: looping over the rows per column doubled the build's cost.
func (w *Workspace) buildProfile(b seq.Seq, rev bool, from, to int) {
	if n := (to - from + 1) &^ 7; useAVX2 && n > 0 {
		bases := b[from-1 : from-1+n]
		if rev {
			bases = b[len(b)-from-n+1 : len(b)-from+1]
		}
		buildProfileAVX2(w.slab[w.stride()+from:], w.stride(), bases, rev, &w.sub)
		from += n
	}
	p0, p1, p2 := w.profRow(0)[from:to+1], w.profRow(1)[from:to+1], w.profRow(2)[from:to+1]
	p3, p4 := w.profRow(3)[from:to+1], w.profRow(4)[from:to+1]
	for k := range p0 {
		cb := b[from+k-1]
		if rev {
			cb = b[len(b)-from-k]
		}
		cb = min(cb, seq.N) // any out-of-alphabet code scores like N
		p0[k], p1[k], p2[k], p3[k], p4[k] = w.sub[0][cb], w.sub[1][cb], w.sub[2][cb], w.sub[3][cb], w.sub[4][cb]
	}
}

// RevComp writes the reverse complement of s into the workspace's scratch
// buffer and returns it. The result is valid until the next RevComp call on
// this workspace; a caller that retains it must Clone it first.
func (w *Workspace) RevComp(s seq.Seq) seq.Seq {
	if cap(w.rc) < len(s) {
		w.rc = make(seq.Seq, len(s))
	}
	out := w.rc[:len(s)]
	for i, b := range s {
		out[len(s)-1-i] = b.Complement()
	}
	return out
}

// fitsInt32 reports whether every DP value for these inputs provably fits
// the int32 row representation. Genomic inputs (reads up to a few hundred
// kilobases, single-digit scoring constants) pass by orders of magnitude;
// pathological parameters fall back to the reference int kernel.
func fitsInt32(alen, blen int, sc Scoring, x int) bool {
	const lim = 1 << 29
	abs := func(v int) int64 {
		w := int64(v)
		if w < 0 {
			return -w
		}
		return w
	}
	mag := abs(sc.Match)
	if m := abs(sc.Mismatch); m > mag {
		mag = m
	}
	if g := abs(sc.Gap); g > mag {
		mag = g
	}
	if mag >= lim || int64(x) >= lim {
		return false
	}
	n := int64(alen) + int64(blen) + 2
	if n >= 1<<31 {
		return false
	}
	return n*mag+int64(x) < lim
}

// ExtendRight is the package-level ExtendRight running on this workspace's
// buffers: identical scores, extents and cell counts, no per-call
// allocation once the rows are warm.
func (w *Workspace) ExtendRight(a, b seq.Seq, sc Scoring, x int) Extension {
	return w.extend(a, b, sc, x, false)
}

// extend runs the X-drop extension over a and b, walking both backward when
// rev is set — the left extension runs over reversed indices instead of the
// reference kernel's heap-materialised reversed copies. Results (Score,
// AExt, BExt, Cells) are identical to extendRightRef on the corresponding
// (possibly reversed) inputs; inputs whose values could overflow int32, or
// whose gap score is not a penalty, go to that reference.
//
// Relative to the reference, the rows run in the row loop — extendRows, or
// extendRowsAVX2 where useAVX2 — which computes each row over the window's
// columns in place of the row above; substitution scores come from the
// query profile instead of a per-cell base load and table lookup, and
// cells are counted per row. The loop returns whenever the band is about
// to pass the profile built so far; extend builds the next chunk and calls
// it again.
func (w *Workspace) extend(a, b seq.Seq, sc Scoring, x int, rev bool) Extension {
	if x < 0 {
		x = 0
	}
	alen, blen := len(a), len(b)
	if sc.Gap >= 0 || !fitsInt32(alen, blen, sc, x) {
		w.stats.RefExts++
		if rev {
			return extendRightRef(reverse(a), reverse(b), sc, x)
		}
		return extendRightRef(a, b, sc, x)
	}
	w.stats.RowExts++
	w.ensure(sc, blen)
	st := w.startRows(a, blen, int32(x), rev)
	for st.i < alen && st.lo <= st.hi {
		if hi := min(st.hi+1, blen); hi > st.built {
			to := min(hi+profChunk, blen)
			w.buildProfile(b, rev, st.built+1, to)
			st.built = to
		}
		if useAVX2 {
			extendRowsAVX2(&st)
		} else {
			extendRows(&st)
		}
	}
	w.stats.Cells += int64(st.cells)
	return Extension{Score: int(st.best), AExt: st.bestI, BExt: st.bestJ, Cells: st.cells}
}

// rowCap bounds the rows one call of the row loop runs. An assembly call
// cannot be preempted, so the cap keeps one from holding off the garbage
// collector or the scheduler for long: at x = 1 000 and unit gaps a row is
// about 2 000 cells, and 1 024 of them take about a millisecond.
const rowCap = 1024

// rowsState is the row loop's state between calls: where the extension
// is, what it has found, and what it reads. It lives on extend's stack;
// the assembly loop reaches its fields by the offsets go_asm.h generates.
type rowsState struct {
	slab   []int32 // the workspace's slab: the DP row, then the profile rows
	stride int     // the length of each of the slab's rows
	a      seq.Seq // the sequence down the rows, walked backward when rev
	rev    bool
	blen   int   // the columns of b, 1..blen
	built  int   // profile columns 1..built are filled
	i      int   // the rows done
	lo, hi int   // the last row's live window; lo > hi when it had none
	cells  int   // cells swept by rows 1..i
	bestI  int   // the row of the first cell holding best
	bestJ  int   // and its column
	best   int32 // the best score so far
	x      int32
	ramp   gapRamp // (1..8)·gap; gap is ramp[0]
}

// startRows returns the state of an extension of a against a b of length
// blen, with row 0 — gaps in a only — computed: its cells are not counted
// (reference behaviour).
func (w *Workspace) startRows(a seq.Seq, blen int, x int32, rev bool) rowsState {
	st := rowsState{slab: w.slab, stride: w.stride(), a: a, rev: rev, blen: blen, x: x, ramp: w.ramp}
	row := w.slab[:st.stride]
	row[0] = 0
	for j, s := 1, st.ramp[0]; j <= blen && s >= -x; j, s = j+1, s+st.ramp[0] {
		row[j] = s
		st.hi = j
	}
	// Row 1 meets negInf32 above column hi+1, and the AVX2 loop reads the
	// rest of that column's block of eight as pruned.
	for j := st.hi + 1; j < (st.hi+9)&^7; j++ {
		row[j] = negInf32
	}
	return st
}

// extendRows is the row loop in Go around the Go leaf, extendRow. It runs
// rows i+1, i+2, … until one of four things happens: the window empties
// (the X-drop end: every cell of the row pruned), a runs out, the next
// row's high column passes the profile built so far, or rowCap rows ran.
// Each row widens the window by column hi+1, which has no vertical move —
// a pruned cell above it takes that move out of the max — and then shrinks
// it to the row's live cells. extendRowsAVX2 is the same contract.
func extendRows(st *rowsState) {
	row := st.slab[:st.stride]
	alen, gap := len(st.a), st.ramp[0]
	lo, hi, best := st.lo, st.hi, st.best
	for n := 0; n < rowCap && st.i < alen; n++ {
		if hi < st.blen {
			if hi+1 > st.built {
				break
			}
			hi++
			row[hi] = negInf32
		}
		st.i++
		st.cells += hi - lo + 1

		ca := st.a[st.i-1]
		if st.rev {
			ca = st.a[alen-st.i]
		}
		ca = min(ca, seq.N)
		prof := st.slab[(1+int(ca))*st.stride:]
		var top int
		best, top = extendRow(row[lo:hi+1], prof[lo:hi+1], gap, best, st.x)
		if top >= 0 {
			st.bestI, st.bestJ = st.i, lo+top
		}

		for lo <= hi && row[lo] == negInf32 {
			lo++
		}
		for hi >= lo && row[hi] == negInf32 {
			hi--
		}
		if lo > hi {
			break
		}
	}
	st.lo, st.hi, st.best = lo, hi, best
}

// extendRow computes one DP row in place over a window of columns: row
// holds the row above on entry and this row on return; sub is the profile
// row of this row's base over the same columns. It returns the running best
// and top, the offset of the first cell holding it if the row raised it
// (-1 if not) — where the reference, moving (bestI, bestJ) on every strict
// rise, ends the row.
//
// The first column's diagonal and left neighbour enter as negInf32. The
// carried u is the cell's score BEFORE pruning; the stored cell is pruned
// as in the reference. That changes nothing: gap < 0 and best-x only rises
// along a row, so a value below the threshold at its own column stays below
// every later one however many gaps extend it. For the same reason u > best
// implies a live cell, so one compare of u against best feeds both
// conditional moves.
//
// The carried chain compiles to ADDL, CMPL, CMOVG: three cycles a cell.
// That rests on source order: Go lowers max(a, b, c) as max(max(a, b), c),
// so t, from the two moves off the row above, comes first and u+gap last;
// max(u+gap, p+gap, diag+sub[j]) runs u through both compare-and-moves,
// five cycles.
//
// Not inlined: inside extend the loop's values compete with the caller's
// for registers and spill. The loop uses all 13 registers amd64 leaves the
// allocator; a separate output row, or tracking the last live column too,
// reloads sub's base from the stack every cell.
//
//go:noinline
func extendRow(row, sub []int32, gap, best, x int32) (rowBest int32, top int) {
	sub = sub[:len(row)]
	diag, u := negInf32, negInf32
	top = -1
	for j := range row {
		p := row[j]
		t := max(p+gap, diag+sub[j])
		u = max(u+gap, t)
		v := negInf32 // select into the sentinel: the other way round clobbers u and spills it
		if u+x >= best {
			v = u
		}
		row[j] = v
		if u > best {
			best, top = u, j
		}
		diag = p
	}
	return best, top
}

// SeedExtend is the package-level SeedExtend running on this workspace:
// identical results, with the left extension walking reversed indices in
// place of the reference's reversed copies, and zero allocations once the
// workspace is warm.
func (w *Workspace) SeedExtend(a, b seq.Seq, posA, posB, k int, sc Scoring, x int) (Result, error) {
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	if posA < 0 || posB < 0 || posA+k > len(a) || posB+k > len(b) || k <= 0 {
		return Result{}, fmt.Errorf("align: seed [%d,%d)+%d out of range for lengths %d,%d",
			posA, posB, k, len(a), len(b))
	}
	seedScore := 0
	for j := 0; j < k; j++ {
		seedScore += sub(sc, a[posA+j], b[posB+j])
	}
	right := w.extend(a[posA+k:], b[posB+k:], sc, x, false)
	left := w.extend(a[:posA], b[:posB], sc, x, true)
	return Result{
		Score:  seedScore + right.Score + left.Score,
		AStart: posA - left.AExt,
		AEnd:   posA + k + right.AExt,
		BStart: posB - left.BExt,
		BEnd:   posB + k + right.BExt,
		Cells:  right.Cells + left.Cells,
	}, nil
}
