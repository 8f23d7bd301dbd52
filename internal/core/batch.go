package core

import (
	"math/bits"

	"gnbody/internal/align"
	"gnbody/internal/overlap"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
)

// Length-bucketed batch scheduling (DESIGN.md §16). A task group — the
// alignments waiting on one fetched read, or a rank's whole local-local
// set — mixes seeds whose extensions span orders of magnitude: a seed near
// a read end terminates in a handful of DP rows, a mid-read seed on two
// long reads sweeps thousands. Executing them in discovery order makes the
// kernel oscillate between regimes, wasting branch history and re-touching
// cold regions of the workspace's row buffers on every size jump. The
// batcher reorders each group so tasks whose *expected* extension lengths
// share a power-of-two bucket run back to back, while hits are still
// emitted in the original task order — the result set, and its order
// after SortHits, are bit-identical to unbatched execution.
//
// The expected length comes from the replicated length vector (stage-2
// metadata every rank holds), so planning never touches sequence data and
// works for remote reads before their bases arrive. The permutation is a
// counting sort over ≤34 buckets: deterministic, stable within a bucket,
// and allocation-free against the batcher's reusable buffers.

// ExpectedExtension estimates how many columns the X-drop kernel will
// sweep for task t over reads of lengths lens: the right extension is
// bounded by the shorter suffix past the seed, the left extension by the
// shorter prefix before it. An estimate only — X-drop may stop far earlier
// — but extension bounds are what separate the short-regime tasks from the
// long ones, and on true overlaps the kernel's cells follow it (about 31
// cells a column at x = 15): the batcher buckets by it, and the pipeline's
// task placement balances ranks on it.
func ExpectedExtension(lens []int32, t overlap.Task) int {
	la, lb := int(lens[t.A]), int(lens[t.B])
	k := int(t.Seed.K)
	pa, pb := int(t.Seed.PosA), int(t.Seed.PosB)
	right := min(la-pa-k, lb-pb-k)
	left := min(pa, pb)
	if right < 0 {
		right = 0
	}
	return left + right
}

// batcher holds the reusable buffers for scheduling one task group at a
// time. Buffers grow monotonically and are reused across groups, so the
// drivers' zero-allocation steady state is preserved. Not safe for
// concurrent use; the asynchronous driver keeps one per nesting level
// (fetcher.runGroup) because a Progress call inside one group's loop can
// start another group's completion callback.
type batcher struct {
	tasks []overlap.Task
	order []int32
	keys  []uint8
	res   []align.Result
	hit   []bool
	cnt   [34]int32 // bits.Len of an int32 length is ≤ 32
}

// grow sizes every buffer for a group of n tasks.
func (bt *batcher) grow(n int) {
	if n <= cap(bt.tasks) {
		return
	}
	c := 2 * cap(bt.tasks)
	if c < n {
		c = n
	}
	if c < 64 {
		c = 64
	}
	bt.tasks = make([]overlap.Task, 0, c)
	bt.order = make([]int32, c)
	bt.keys = make([]uint8, c)
	bt.res = make([]align.Result, c)
	bt.hit = make([]bool, c)
}

// loadFlat stages a group given by value (flatStore slices).
func (bt *batcher) loadFlat(ts []overlap.Task) {
	bt.grow(len(ts))
	bt.tasks = append(bt.tasks[:0], ts...)
}

// loadPtr stages a group given as pointers (ptrStore slices).
func (bt *batcher) loadPtr(ts []*overlap.Task) {
	bt.grow(len(ts))
	bt.tasks = bt.tasks[:0]
	for _, t := range ts {
		bt.tasks = append(bt.tasks, *t)
	}
}

// plan fills order[:n] with the length-bucketed permutation: buckets
// ascending, original order within a bucket (counting sort, stable, so
// the permutation is a pure function of the staged task list).
func (bt *batcher) plan(in *Input) {
	for i := range bt.cnt {
		bt.cnt[i] = 0
	}
	for i, t := range bt.tasks {
		k := bits.Len(uint(ExpectedExtension(in.Lens, t)))
		if k >= len(bt.cnt) {
			k = len(bt.cnt) - 1
		}
		bt.keys[i] = uint8(k)
		bt.cnt[k]++
	}
	var off int32
	for k, c := range bt.cnt {
		bt.cnt[k] = off
		off += c
	}
	for i, k := range bt.keys[:len(bt.tasks)] {
		bt.order[bt.cnt[k]] = int32(i)
		bt.cnt[k]++
	}
}

// run executes the staged group in bucketed order, storing each result at
// the task's original index, then emits hits in original order. rem is the
// group's remote payload and rid the read it stands for; haveRem distinguishes a remote group under the
// phantom codec (rem == nil, but the remote side must stay nil) from a
// local-local group, where both sides resolve from the store. pollEvery
// > 0 answers inbound requests between alignments (the asynchronous
// drivers' application-level polling); BSP passes 0.
func (bt *batcher) run(r rt.Runtime, in *Input, cfg *Config, rid seq.ReadID, rem seq.Seq, haveRem bool, out *Result, pollEvery int) {
	n := len(bt.tasks)
	bt.plan(in)
	done := 0
	for _, oi := range bt.order[:n] {
		t := bt.tasks[oi]
		var a, b seq.Seq
		if in.Store != nil {
			switch {
			case haveRem && t.A == rid:
				a, b = rem, in.localSeq(t.B)
			case haveRem:
				a, b = in.localSeq(t.A), rem
			default:
				a, b = in.localSeq(t.A), in.localSeq(t.B)
			}
		}
		res, ok := cfg.Exec.Align(r, t, a, b)
		bt.res[oi] = res
		bt.hit[oi] = ok && res.Score >= cfg.MinScore
		done++
		if pollEvery > 0 && done%pollEvery == 0 {
			r.Progress()
		}
	}
	for i := 0; i < n; i++ {
		if bt.hit[i] {
			out.Hits = append(out.Hits, mkHit(bt.tasks[i], bt.res[i]))
		}
	}
}
