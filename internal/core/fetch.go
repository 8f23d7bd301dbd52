package core

import (
	"encoding/binary"
	"fmt"

	"gnbody/internal/overlap"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
	"gnbody/internal/trace"
)

// fetcher is one rank's per-Run state and the single answer to "where does
// a remote read come from" (DESIGN.md §4): the local store, the remote-read
// cache, a pull of the same read that is not back yet (coalesced, when the
// cache is on), or — only then — the wire, up to FetchBatch same-owner
// reads to a request. The asynchronous driver pulls through fetch; the BSP
// driver, whose supersteps are its own wire path, takes the shared
// prologue and the cache steps (resident, admit, unpin). Everything runs on
// the rank's own goroutine (progress contract), so nothing is locked.
type fetcher struct {
	r      rt.Runtime
	in     *Input
	cfg    *Config
	out    *Result
	cache  *ReadCache // nil: cache off
	lo, hi int        // this rank's partition range
	base   int64      // wire size of this rank's partition, charged for the Run
	err    error      // the Run's first ExchangeError

	// flying is the planned size of the responses not back yet; its peak,
	// Metrics.PeakRPCBytes, is the async counterpart of BSP's PeakExchange.
	flying int64
	dec    *readDecoder
	// scratch pools decode buffers for cache-off pulls; with the cache on a
	// pull decodes into fresh bases, which the cache then owns.
	scratch seqScratch
	// One batcher per nesting level of runGroup (DESIGN.md §16), depth of
	// them in use: callbacks nest strictly, so the pool is a stack.
	batchers []*batcher
	depth    int
	// inflight: per read decided for the wire and not back yet, the waiters
	// that asked meanwhile. Cache on only: each rider is paid with a pin.
	inflight map[seq.ReadID][]waiter
	pend     []waiter   // same-owner misses not yet on the wire
	spare    [][]waiter // waiter lists of answered requests, for flush to reuse
}

// waiter is one fetch decision: the read, and the task group waiting on it
// (runGroup). The bases are valid during the hand-over only; the fetcher
// releases them.
type waiter struct {
	id    seq.ReadID
	tasks []*overlap.Task
}

// begin is the drivers' shared prologue: defaults, the owner invariant,
// the partition's memory charge, the cache binding. The caller defers end,
// so a fault unwind too drops every pin and both charges.
func begin(r rt.Runtime, in *Input, cfg *Config) (f *fetcher, end func(), err error) {
	cfg.defaults()
	if err := in.validate(r.Rank()); err != nil {
		return nil, nil, err
	}
	f = &fetcher{r: r, in: in, cfg: cfg, out: &Result{}, cache: cfg.Cache,
		base: in.PartitionBytes(r.Rank()), dec: newReadDecoder(r, in)}
	f.lo, f.hi = in.Part.Range(r.Rank())
	r.Alloc(f.base)
	r.Metrics().StoreBytes = in.storeBytes(r.Rank())
	unbind := func() {}
	if f.cache != nil {
		f.inflight = make(map[seq.ReadID][]waiter)
		unbind = f.cache.bind(r)
	}
	return f, func() { unbind(); r.Free(f.base) }, nil
}

// fail keeps the Run's first error, returned after the last collective.
func (f *fetcher) fail(err error) {
	if f.err == nil {
		f.err = err
	}
}

// resident is the fetch decision's cache step (cache on only): the bases of
// remote read id if an earlier pull (this Run's or a previous one's) left
// them here, pinned once for the caller.
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
		f.scratch.put(bases)
	}
}

// runGroup runs one task group through this nesting level's batcher
// (batcher.run has the argument contract), polling between alignments
// (§3.2) so peers are not starved while this rank chews a long group.
func (f *fetcher) runGroup(tasks []*overlap.Task, rid seq.ReadID, rem seq.Seq, haveRem bool) {
	if f.depth == len(f.batchers) {
		f.batchers = append(f.batchers, new(batcher))
	}
	bt := f.batchers[f.depth]
	f.depth++
	bt.loadPtr(tasks)
	bt.run(f.r, f.in, f.cfg, rid, rem, haveRem, f.out, f.cfg.PollEvery)
	f.depth--
}

// deliver hands bases to one waiter's task group; ran is the tasks the
// batcher ran. ok=false means the read could not be had: the fetcher has
// recorded why, and the group does not run.
func (f *fetcher) deliver(w *waiter, bases seq.Seq, ok bool) (ran int) {
	if !ok {
		return 0
	}
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
		if riders, ok := f.inflight[w.id]; ok {
			// Ride the pull already decided. No entry exists yet, but the
			// decision crosses the wire zero more times: a hit.
			f.cache.NoteCoalescedHit()
			f.out.CacheHits++
			f.inflight[w.id] = append(riders, w)
			return
		}
		if bases, ok := f.resident(w.id); ok {
			f.deliver(&w, bases, true)
			return
		}
		f.inflight[w.id] = nil
	}
	// A loop, not an if: sending can run completion callbacks (a full inbox
	// is serviced while sending), and those may have queued other misses.
	owner := f.in.Part.Owner(w.id)
	for len(f.pend) > 0 && f.in.Part.Owner(f.pend[0].id) != owner {
		f.flush()
	}
	f.pend = append(f.pend, w)
	if len(f.pend) >= f.cfg.FetchBatch {
		f.flush()
	}
}

// flush puts the pending misses on the wire as one reqRead request. The
// "pull" direction keeps peak memory at MaxOutstanding batches: no
// unsolicited pushes can pile up (§3.2).
func (f *fetcher) flush() {
	if len(f.pend) == 0 {
		return
	}
	batch := f.pend
	f.pend = nil
	if n := len(f.spare); n > 0 {
		f.pend, f.spare = f.spare[n-1], f.spare[:n-1]
	}
	req := append(make([]byte, 0, 1+4*len(batch)), reqRead)
	var est int64 // the response's size, planned from the length vector
	for _, w := range batch {
		req = binary.LittleEndian.AppendUint32(req, uint32(w.id))
		est += int64(f.in.planSize(w.id))
	}
	f.out.WireFetches += len(batch)
	f.flying += est
	met := f.r.Metrics()
	met.PeakRPCBytes = max(met.PeakRPCBytes, f.flying)
	owner := f.in.Part.Owner(batch[0].id)
	f.r.AsyncCall(owner, req, func(val []byte) { f.arrived(owner, batch, est, val) })
}

// arrived unpacks the response to one request: exactly the reads asked for,
// in the order asked. With the cache off each read decodes into a scratch
// buffer checked out for it alone — the Progress calls under deliver can
// run other completions before this one returns — sized from the length
// vector, so no decode regrows it.
func (f *fetcher) arrived(owner int, batch []waiter, est int64, val []byte) {
	f.flying -= est
	n := int64(len(val))
	f.r.Alloc(n)
	defer f.r.Free(n)
	tb := f.r.Tracer()
	t0 := tb.Now()
	ran := 0
	for i := range batch {
		w := &batch[i]
		var dbuf seq.Seq
		if f.cache == nil {
			dbuf = f.scratch.get(int(f.in.Lens[w.id]))
		}
		read, used, err := f.dec.decode(dbuf, val)
		if err != nil || read.ID != w.id {
			f.scratch.put(dbuf)
			f.fail(&ExchangeError{f.r.Rank(), owner, fmt.Sprintf("bad payload for read %d: %v", w.id, err)})
			for ; i < len(batch); i++ {
				f.settle(&batch[i], nil, false)
			}
			return
		}
		val = val[used:]
		if read.Seq == nil {
			f.scratch.put(dbuf) // phantom codec: nothing landed in it
		}
		ran += f.settle(w, read.Seq, true)
	}
	f.spare = append(f.spare, batch[:0])
	tb.Span(trace.KindBatch, t0, int64(ran))
	if len(val) != 0 {
		f.fail(&ExchangeError{f.r.Rank(), owner, fmt.Sprintf("%d trailing payload bytes", len(val))})
	}
}

// settle hands a read that came off the wire (or did not) to the waiter
// that sent for it and to every rider, one cache pin each.
func (f *fetcher) settle(w *waiter, bases seq.Seq, ok bool) int {
	riders := f.inflight[w.id]
	delete(f.inflight, w.id)
	if ok {
		f.admit(w.id, bases, 1+len(riders))
	}
	ran := f.deliver(w, bases, ok)
	for i := range riders {
		ran += f.deliver(&riders[i], bases, ok)
	}
	return ran
}
