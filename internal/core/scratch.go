package core

import (
	"sync"

	"gnbody/internal/align"
	"gnbody/internal/seq"
)

// runScratch is one Run's working memory (DESIGN.md §6, "Buffer
// ownership"): every buffer a driver would otherwise grow afresh on
// each Run. begin takes one from scratchPool and the end func it returns
// hands it back, so a resident world running Run after Run — dibserve's
// jobs, a benchmark's reps, the stages of one region — re-enters warm
// buffers and allocates little beyond the hits it returns. The pool is
// shared by every world in the process, so a scratch goes back only when
// nothing of it can still be read (idle):
//
//   - BSP's send buffers are in flight from their encode until the
//     superstep's closing Allreduce, not just until Alltoallv returns: the
//     simulator hands the sender's slices to the receivers uncopied, and a
//     peer may unpack them until it enters that collective.
//   - A decode buffer or batcher level still checked out (as after a fault
//     unwind out of a completion callback) means the Run did not end
//     cleanly; that scratch is dropped, not pooled.
type runScratch struct {
	ws       *align.Workspace // an unbound RealExecutor runs on it
	seqs     seqScratch       // async: per-read decode buffers
	batchers []*batcher       // one per nesting level of runGroup; BSP uses level 0
	depth    int              // batcher levels in use
	spare    []pull           // async: answered requests, for flush to reuse
	dbuf     seq.Seq          // BSP: the decode buffer
	pay      [][]byte         // BSP: payload buffers, by order of use, not requester
	sending  bool             // BSP: pay is in a superstep not yet closed
	hits     []Hit            // the Run's hits; it returns an exact-size copy
}

var scratchPool sync.Pool

// idle reports whether nothing the Run took from s is still out.
func (s *runScratch) idle() bool {
	return s.seqs.out == 0 && s.depth == 0 && !s.sending
}

// release pools s if it is idle and drops it otherwise. The spare waiter
// lists are cleared first, so a pooled scratch pins no task of the Run.
func (s *runScratch) release() {
	if !s.idle() {
		return
	}
	for _, p := range s.spare {
		clear(p.ws[:cap(p.ws)])
	}
	s.hits = s.hits[:0]
	scratchPool.Put(s)
}

// level returns the batcher of nesting level d, adding one the first time
// the Run nests that deep.
func (s *runScratch) level(d int) *batcher {
	for len(s.batchers) <= d {
		s.batchers = append(s.batchers, new(batcher))
	}
	return s.batchers[d]
}

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

// get checks out a buffer with room for n bases: the smallest free one
// that fits, so long reads keep finding the long buffers a warm scratch
// holds, or a new one of exactly that capacity.
func (p *seqScratch) get(n int) seq.Seq {
	if n == 0 {
		return nil
	}
	p.out++
	best := -1
	for i, s := range p.free {
		if cap(s) >= n && (best < 0 || cap(s) < cap(p.free[best])) {
			best = i
		}
	}
	if best < 0 {
		return make(seq.Seq, 0, n)
	}
	s := p.free[best]
	last := len(p.free) - 1
	p.free[best] = p.free[last]
	p.free = p.free[:last]
	return s
}

// put returns a buffer to the pool.
func (p *seqScratch) put(s seq.Seq) {
	if cap(s) > 0 {
		p.out--
		p.free = append(p.free, s)
	}
}
