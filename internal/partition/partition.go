// Package partition distributes reads and alignment tasks across ranks
// (paper §3).
//
// Reads stay blind: stage 1 partitions the input reads uniformly by size
// in memory — contiguous blocks with roughly equal total bytes, no other
// characteristic considered (DiBELLA's data-independent strategy). Tasks
// are fetch-aware: after candidate discovery every task goes to the owner
// of one or both of its reads, with task *counts* balanced across ranks,
// and an assignee owning only one read must fetch the other remotely —
// precisely the irregular communication the BSP and Async drivers
// coordinate. The pair list is known before the first byte moves, so
// AssignTasks picks each task's side to keep those fetches few.
package partition

import (
	"fmt"
	"sort"

	"gnbody/internal/seq"
)

// Partition maps every read to an owning rank via contiguous blocks.
type Partition struct {
	P      int
	starts []int   // starts[r] = first read ID owned by rank r; len P+1
	wire   []int32 // planned wire size of every read, what AssignTasks levels
}

// BySize splits reads into P contiguous blocks of roughly equal total
// wire size. It is deterministic and treats only size — DiBELLA's
// data-independent strategy.
func BySize(lens []int, p int) (*Partition, error) {
	if p <= 0 {
		return nil, fmt.Errorf("partition: p=%d must be positive", p)
	}
	pt := &Partition{P: p, starts: make([]int, p+1), wire: make([]int32, len(lens))}
	var total int64
	for i, l := range lens {
		pt.wire[i] = int32(seq.WireSizeOf(l))
		total += int64(pt.wire[i])
	}
	pt.starts[p] = len(lens)
	var acc int64
	r := 1
	for i, w := range pt.wire {
		// Rank r starts once the running weight crosses r/P of the total.
		for r < p && acc*int64(p) >= int64(r)*total {
			pt.starts[r] = i
			r++
		}
		acc += int64(w)
	}
	for ; r < p; r++ {
		pt.starts[r] = len(lens)
	}
	return pt, nil
}

// Owner returns the rank owning read id.
func (pt *Partition) Owner(id seq.ReadID) int {
	// starts is sorted; find the last r with starts[r] <= id.
	r := sort.Search(pt.P+1, func(i int) bool { return pt.starts[i] > int(id) })
	return r - 1
}

// Range returns the read-ID interval [lo, hi) owned by rank r.
func (pt *Partition) Range(r int) (lo, hi int) { return pt.starts[r], pt.starts[r+1] }

// Count returns the number of reads owned by rank r.
func (pt *Partition) Count(r int) int { return pt.starts[r+1] - pt.starts[r] }

// Loads returns the total wire bytes owned by each rank.
func (pt *Partition) Loads(lens []int) []int64 {
	out := make([]int64, pt.P)
	for r := 0; r < pt.P; r++ {
		lo, hi := pt.Range(r)
		for i := lo; i < hi; i++ {
			out[r] += int64(seq.WireSizeOf(lens[i]))
		}
	}
	return out
}

// Imbalance returns max/mean of the per-rank values (1.0 = perfectly
// balanced); it is the load-imbalance metric plotted in Figure 5.
func Imbalance(values []int64) float64 {
	if len(values) == 0 {
		return 1
	}
	var sum, max int64
	for _, v := range values {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(values))
	return float64(max) / mean
}
