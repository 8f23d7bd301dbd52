package core

import "gnbody/internal/seq"

// seqScratch hands out decode buffers to the fetcher's completion
// callbacks. Delivering a read polls runtime progress between tasks, and
// progress can run *other* completion callbacks on the same goroutine
// before the first returns — so one shared buffer per rank would be
// clobbered mid-group. Each read decodes into a buffer checked out for it
// and returned when its waiter is done, all on the rank's own goroutine
// (progress contract): no locking.
//
// The capacity asked for is the read's length, known from the replicated
// length vector, so no decode regrows a buffer. (Sizing every buffer for
// the plan's longest read would multiply that length by the callback
// nesting depth, which reaches MaxOutstanding when responses burst.)
type seqScratch struct {
	free []seq.Seq
	out  int // buffers checked out and not yet returned
}

// get checks out a buffer with room for n bases: the most recently
// returned one that fits, or a new one of exactly that capacity.
func (p *seqScratch) get(n int) seq.Seq {
	if n == 0 {
		return nil
	}
	p.out++
	for i := len(p.free) - 1; i >= 0; i-- {
		if s := p.free[i]; cap(s) >= n {
			last := len(p.free) - 1
			p.free[i] = p.free[last]
			p.free = p.free[:last]
			return s
		}
	}
	return make(seq.Seq, 0, n)
}

// put returns a buffer to the pool.
func (p *seqScratch) put(s seq.Seq) {
	if cap(s) > 0 {
		p.out--
		p.free = append(p.free, s)
	}
}
