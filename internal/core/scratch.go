package core

import "gnbody/internal/seq"

// seqScratch hands out decode buffers to RPC completion callbacks. The
// async drivers poll runtime progress between tasks inside a callback, and
// progress can run *other* completion callbacks on the same goroutine
// before the first returns — so a single shared buffer per rank would be
// clobbered mid-batch. Each callback checks one buffer out for its whole
// batch and returns it on exit; a nested callback checks out its own.
// Under the progress contract every checkout happens on the rank's own
// goroutine, so the free list needs no locking.
//
// A callback asks for the length of the read it is about to decode, known
// from the replicated length vector, so no decode ever regrows a buffer.
// (Sizing every buffer for the longest read in the plan instead would
// multiply that length by the callback nesting depth, which reaches
// MaxOutstanding when responses arrive in bursts.)
type seqScratch struct{ free []seq.Seq }

// get checks out a buffer with room for n bases: the most recently
// returned one that fits, or a new one of exactly that capacity.
func (p *seqScratch) get(n int) seq.Seq {
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
		p.free = append(p.free, s)
	}
}
