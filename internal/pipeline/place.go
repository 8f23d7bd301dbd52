package pipeline

import (
	"cmp"
	"errors"
	"slices"

	"gnbody/internal/core"
	"gnbody/internal/overlap"
	"gnbody/internal/partition"
	"gnbody/internal/rt"
)

// place puts each deduplicated task (in pair-key order) on the owner of
// one of its reads and returns this rank's tasks, in three rounds:
//
//  1. Tasks: the pair owner sends each task to the rank side picks, so
//     that each rank fetches one side of every rank pair's reads.
//  2. Costs: every rank shares its tasks' estimated kernel cost
//     (core.ExpectedExtension) and, per other rank, the cost it may move
//     there, split into the moves that free one of its fetches and the
//     rest.
//  3. Moved tasks: every rank computes the same transfer plan from those
//     rows (partition.Transfers) and sends its share (pick).
//
// Like Run, it enters every round whatever it decodes on the way, and
// sends what its peers can check.
func place(r rt.Runtime, pl *Plan, lay *layout, deduped []overlap.Task) ([]overlap.Task, error) {
	p, me := r.Size(), r.Rank()
	lo, hi := pl.Part.Range(me)

	send := make([][]byte, p)
	for _, t := range deduped {
		dst := side(pl.Part.Owner(t.A), pl.Part.Owner(t.B))
		send[dst] = lay.putTask(send[dst], t)
	}
	mine, err1 := lay.decodeTasks(r.Alltoallv(send), pl.Lens, lo, hi)

	// far is a cross-rank task's read owned elsewhere, and alt its owner;
	// alt is me for a task whose reads are both here.
	far := func(t overlap.Task) (id int, alt int) {
		if a := pl.Part.Owner(t.A); a != me {
			return int(t.A), a
		}
		return int(t.B), pl.Part.Owner(t.B)
	}
	users := make([]int32, len(pl.Lens)) // per remote read: the tasks here that fetch it
	for _, t := range mine {
		if id, alt := far(t); alt != me {
			users[id]++
		}
	}
	opts, row := make([]option, len(mine)), make([]int64, 1+2*p)
	for i, t := range mine {
		o := &opts[i]
		var id int
		id, o.dst = far(t)
		o.near, o.cost = int(t.A)+int(t.B)-id, int64(core.ExpectedExtension(pl.Lens, t))
		row[0] += o.cost
		if o.dst != me {
			o.class = min(int(users[id])-1, 1)
			row[1+o.dst+p*o.class] += o.cost
		}
	}
	rowBuf, rowsOut := putCosts(row), make([][]byte, p)
	for dst := range rowsOut {
		rowsOut[dst] = rowBuf
	}
	cost, free, rest, err2 := decodeCosts(r.Alltoallv(rowsOut))

	moved := make([][]byte, p)
	kept := mine
	if err1 == nil && err2 == nil {
		kept = make([]overlap.Task, 0, len(mine))
		for i, dst := range pick(opts, partition.Transfers(cost, free, rest)[me], me) {
			if dst == me {
				kept = append(kept, mine[i])
			} else {
				moved[dst] = lay.putTask(moved[dst], mine[i])
			}
		}
	}
	incoming, err3 := lay.decodeTasks(r.Alltoallv(moved), pl.Lens, lo, hi)
	kept = append(kept, incoming...)
	overlap.SortTasks(kept)
	return kept, errors.Join(err1, err2, err3)
}

// side is the rank a task between reads owned by ranks ra and rb runs on
// before the repair: ra if rb is ra, else of the pair lo < hi, lo when
// hi-lo is odd and hi when it is even. Each rank then fetches one side of
// every rank pair's reads, whichever rank owns the pair, and runs about
// half its pairs; the repair evens the loads.
func side(ra, rb int) int {
	lo, hi := min(ra, rb), max(ra, rb)
	if (hi-lo)%2 == 1 {
		return lo
	}
	return hi
}

// option is what a task may do in the repair: move to rank dst, which
// then fetches read near (the task's read this rank owns), at an
// estimated cost. Its class is 0 if it is the only task here that
// fetches its other read, so the move frees that fetch, else 1.
type option struct {
	dst, near, class int
	cost             int64
}

// pick chooses, for each rank dst, tasks to send there whose cost sums as
// near as it can to plan[dst]: those that free a fetch first, then those
// whose near read the most candidates share (each such read is one fetch
// more at dst, however many tasks it carries), the costliest first within
// a read; each is taken if it brings the sum no further from plan[dst].
// It returns each task's rank, me for the ones kept.
func pick(opts []option, plan []int64, me int) []int {
	dest := make([]int, len(opts))
	byDst := make([][]int, len(plan))
	share := map[[2]int]int{}
	for i, o := range opts {
		dest[i] = me
		if o.dst != me && plan[o.dst] > 0 {
			byDst[o.dst] = append(byDst[o.dst], i)
			share[[2]int{o.dst, o.near}]++
		}
	}
	shared := make([]int, len(opts)) // per candidate: those with its dst and near read
	for dst, cand := range byDst {
		for _, i := range cand {
			shared[i] = share[[2]int{dst, opts[i].near}]
		}
		slices.SortStableFunc(cand, func(i, j int) int {
			a, b := &opts[i], &opts[j]
			return cmp.Or(cmp.Compare(a.class, b.class), -cmp.Compare(shared[i], shared[j]),
				cmp.Compare(a.near, b.near), -cmp.Compare(a.cost, b.cost))
		})
		var sum int64
		for _, i := range cand {
			if c := opts[i].cost; 2*sum+c <= 2*plan[dst] {
				sum += c
				dest[i] = dst
			}
		}
	}
	return dest
}
