package core

import (
	"encoding/binary"
	"fmt"

	"gnbody/internal/align"
	"gnbody/internal/overlap"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
	"gnbody/internal/trace"
)

// fetcher is one rank's per-Run state and the single answer to "where does
// a remote read come from" (DESIGN.md §3): the local store, a caller-owned
// cache an earlier Run left it in, or the wire, up to FetchBatch same-owner
// reads to a request. A Run decides each distinct remote read once, so a
// read is never asked for while its own pull is in flight. The
// asynchronous driver pulls through fetch; the BSP driver, whose
// supersteps are its own wire path, takes the shared prologue and the
// cache steps (resident, admit, unpin). Everything runs on
// the rank's own goroutine (progress contract), so nothing is locked.
type fetcher struct {
	r      rt.Runtime
	in     *Input
	cfg    *Config
	out    *Result
	cache  *ReadCache // caller-owned, kept across Runs; nil: cache off
	lo, hi int        // this rank's partition range
	base   int64      // wire size of this rank's partition, charged for the Run
	err    error      // the Run's first ExchangeError

	// flying is the planned size of the responses not back yet; its peak,
	// Metrics.PeakRPCBytes, is the async counterpart of BSP's PeakExchange.
	flying int64
	dec    *readDecoder
	s      *runScratch // the Run's buffers, hits and batchers
	pend   pull        // same-owner misses not yet on the wire
}

// waiter is one fetch decision: the read, and the task group waiting on it
// (runGroup). The bases are valid during the hand-over only; the fetcher
// releases them.
type waiter struct {
	id    seq.ReadID
	tasks []*overlap.Task
}

// pull is one reqRead request: the waiters it answers and its encoded
// bytes. Both are recycled together once its response has been handled —
// by then the runtime has long sent the request.
type pull struct {
	ws  []waiter
	req []byte
}

// begin is the drivers' shared prologue: defaults, the owner invariant,
// the partition's memory charge, the cache binding and the Run's scratch,
// whose workspace an unbound RealExecutor is bound to. The caller defers
// end, so a fault unwind too drops every pin and both charges; end pools
// the scratch only if the Run left nothing of it out (runScratch.idle).
func begin(r rt.Runtime, in *Input, cfg *Config) (f *fetcher, end func(), err error) {
	cfg.defaults()
	if err := in.validate(r.Rank()); err != nil {
		return nil, nil, err
	}
	f = &fetcher{r: r, in: in, cfg: cfg, out: &Result{}, cache: cfg.Cache,
		base: in.PartitionBytes(r.Rank()), dec: newReadDecoder(r, in)}
	if f.s, _ = scratchPool.Get().(*runScratch); f.s == nil {
		f.s = new(runScratch)
	}
	if re, ok := cfg.Exec.(RealExecutor); ok && re.call == nil {
		if f.s.ws == nil {
			f.s.ws = align.NewWorkspace()
		}
		cfg.Exec = re.bind(f.s.ws)
	}
	f.lo, f.hi = in.Part.Range(r.Rank())
	r.Alloc(f.base)
	r.Metrics().StoreBytes = in.storeBytes(r.Rank())
	unbind := func() {}
	if f.cache != nil {
		unbind = f.cache.bind(r)
	}
	return f, func() {
		unbind()
		r.Free(f.base)
		if cap(f.pend.ws) > 0 {
			f.s.spare = append(f.s.spare, pull{f.pend.ws[:0], f.pend.req[:0]})
		}
		f.s.release()
	}, nil
}

// finish ends a Run that got through its last collective. The hits are
// copied out of the scratch at their exact size: a kept Result carries no
// spare capacity and shares nothing with the scratch.
func (f *fetcher) finish() (*Result, error) {
	f.out.unreturned = f.s.seqs.out + f.s.depth
	if f.err != nil {
		return nil, f.err
	}
	if len(f.s.hits) > 0 {
		f.out.Hits = append(make([]Hit, 0, len(f.s.hits)), f.s.hits...)
	}
	return f.out, nil
}

// fail keeps the Run's first error, returned after the last collective.
func (f *fetcher) fail(err error) {
	if f.err == nil {
		f.err = err
	}
}

// resident is the fetch decision's cache step (cache on only): the bases of
// remote read id if a previous Run's pull left them here, pinned once for
// the caller.
func (f *fetcher) resident(id seq.ReadID) (seq.Seq, bool) {
	bases, ok := f.cache.Acquire(id, 1)
	if ok {
		f.out.CacheHits++
	}
	return bases, ok
}

// admit hands freshly fetched bases to the cache, which owns them from
// here on (never a reused decode buffer), holding pins references.
func (f *fetcher) admit(id seq.ReadID, bases seq.Seq, pins int) {
	if f.cache != nil {
		f.cache.Insert(id, bases, int64(f.in.planSize(id)), pins)
	}
}

// unpin drops one reference resident or admit took.
func (f *fetcher) unpin(id seq.ReadID) {
	if f.cache != nil {
		f.cache.Release(id, 1)
	}
}

// release settles what a hand-over of remote read id left owing: the cache
// pin with the cache on, the scratch decode buffer — the bases themselves —
// otherwise.
func (f *fetcher) release(id seq.ReadID, bases seq.Seq) {
	if f.cache != nil {
		f.unpin(id)
	} else {
		f.s.seqs.put(bases)
	}
}

// runGroup runs one task group through this nesting level's batcher
// (batcher.run has the argument contract), polling between alignments
// (§3.2) so peers are not starved while this rank chews a long group.
func (f *fetcher) runGroup(tasks []*overlap.Task, rid seq.ReadID, rem seq.Seq, haveRem bool) {
	bt := f.s.level(f.s.depth)
	f.s.depth++
	bt.loadPtr(tasks)
	bt.run(f.r, f.in, f.cfg, rid, rem, haveRem, &f.s.hits, true)
	f.s.depth--
}

// deliver hands bases to one waiter's task group; ran is the tasks the
// batcher ran.
func (f *fetcher) deliver(w *waiter, bases seq.Seq) (ran int) {
	f.runGroup(w.tasks, w.id, bases, true)
	f.release(w.id, bases)
	return len(w.tasks)
}

// fetch resolves remote read w.id (the owner invariant makes every task's
// other read local, so only its remote read is ever fetched) and delivers
// it — at once for a resident read, from a completion callback otherwise.
// A miss joins the pending request, which goes out when it holds
// FetchBatch reads, when the next miss has another owner, or on flush:
// whoever then waits for completions (Drain) flushes first.
func (f *fetcher) fetch(w waiter) {
	if f.cache != nil {
		if bases, ok := f.resident(w.id); ok {
			f.deliver(&w, bases)
			return
		}
	}
	// A loop, not an if: sending can run completion callbacks (a full inbox
	// is serviced while sending), and those may have queued other misses.
	owner := f.in.Part.Owner(w.id)
	for len(f.pend.ws) > 0 && f.in.Part.Owner(f.pend.ws[0].id) != owner {
		f.flush()
	}
	f.pend.ws = append(f.pend.ws, w)
	if len(f.pend.ws) >= f.cfg.FetchBatch {
		f.flush()
	}
}

// flush puts the pending misses on the wire as one reqRead request. The
// "pull" direction keeps peak memory at MaxOutstanding batches: no
// unsolicited pushes can pile up (§3.2).
func (f *fetcher) flush() {
	if len(f.pend.ws) == 0 {
		return
	}
	p := f.pend
	f.pend = pull{}
	if n := len(f.s.spare); n > 0 {
		f.pend, f.s.spare = f.s.spare[n-1], f.s.spare[:n-1]
	}
	p.req = append(p.req[:0], reqRead)
	var est int64 // the response's size, planned from the length vector
	for _, w := range p.ws {
		p.req = binary.LittleEndian.AppendUint32(p.req, uint32(w.id))
		est += int64(f.in.planSize(w.id))
	}
	f.out.WireFetches += len(p.ws)
	f.flying += est
	met := f.r.Metrics()
	met.PeakRPCBytes = max(met.PeakRPCBytes, f.flying)
	owner := f.in.Part.Owner(p.ws[0].id)
	f.r.AsyncCall(owner, p.req, func(val []byte) { f.arrived(owner, p, est, val) })
}

// arrived unpacks the response to one request: exactly the reads asked for,
// in the order asked. With the cache off each read decodes into a scratch
// buffer checked out for it alone — the Progress calls under deliver can
// run other completions before this one returns — sized from the length
// vector, so no decode regrows it.
func (f *fetcher) arrived(owner int, p pull, est int64, val []byte) {
	f.flying -= est
	n := int64(len(val))
	f.r.Alloc(n)
	defer f.r.Free(n)
	tb := f.r.Tracer()
	t0 := tb.Now()
	ran := 0
	for i := range p.ws {
		w := &p.ws[i]
		var dbuf seq.Seq
		if f.cache == nil {
			dbuf = f.s.seqs.get(int(f.in.Lens[w.id]))
		}
		read, used, err := f.dec.decode(dbuf, val)
		if err != nil || read.ID != w.id {
			f.s.seqs.put(dbuf)
			// This read and the rest of the batch run no group.
			f.fail(&ExchangeError{f.r.Rank(), owner, fmt.Sprintf("bad payload for read %d: %v", w.id, err)})
			return
		}
		val = val[used:]
		if read.Seq == nil {
			f.s.seqs.put(dbuf) // phantom codec: nothing landed in it
		}
		f.admit(w.id, read.Seq, 1)
		ran += f.deliver(w, read.Seq)
	}
	f.s.spare = append(f.s.spare, pull{p.ws[:0], p.req[:0]})
	tb.Span(trace.KindBatch, t0, int64(ran))
	if len(val) != 0 {
		f.fail(&ExchangeError{f.r.Rank(), owner, fmt.Sprintf("%d trailing payload bytes", len(val))})
	}
}
