package core

import (
	"fmt"

	"gnbody/internal/rt"
	"gnbody/internal/seq"
	"gnbody/internal/trace"
)

// RunAsync executes the asynchronous driver on one rank (§3.2): tasks are
// indexed under their remote read; after a split-phase entry barrier
// (local-local tasks overlap other ranks' arrival), the rank issues an
// asynchronous pull RPC per distinct remote read with a bounded number
// outstanding, and the attached callback computes every alignment waiting
// on that read as soon as it arrives. A single exit barrier keeps the
// partitioned reads servable until all ranks complete. Collective.
//
// Config.FetchBatch > 1 enables the §5 aggregation variant: one RPC pulls
// up to that many same-owner reads, amortising per-message costs at the
// price of holding more remote data in memory — the knob §5 predicts
// high-latency networks will need.
func RunAsync(r rt.Runtime, in *Input, cfg Config) (*Result, error) {
	cfg.defaults()
	if err := in.validate(r.Rank()); err != nil {
		return nil, err
	}
	out := &Result{}
	var store *ptrStore
	r.Timed(rt.CatOverhead, func() { store = buildPtrStore(in, r.Rank()) })
	out.LocalTasks = len(store.local)
	out.RemoteReads = len(store.order)
	for _, ts := range store.byRemote {
		out.RemoteTasks += len(ts)
	}

	base := in.PartitionBytes(r.Rank())
	r.Alloc(base)
	defer r.Free(base)
	r.Metrics().StoreBytes = in.storeBytes(r.Rank())
	meter := rpcMeter{m: r.Metrics()}
	cache := cfg.Cache
	if cache != nil {
		unbind := cache.bind(r)
		defer unbind()
	}

	// Serve lookups into this rank's partition. The split-phase barrier
	// below guarantees no request arrives before every rank has
	// registered (reads become "accessible via RPC-lookup" only once all
	// ranks pass the barrier).
	var cbErr error
	fail := func(err error) {
		if cbErr == nil {
			cbErr = err
		}
	}
	r.Serve(readServer(r, in, fail))

	// Batchers are pooled, not shared: a Progress call inside one group's
	// loop can start another group's completion callback (DESIGN.md §16).
	var bpool batchPool

	// Split-phase barrier: compute local-local tasks during the time this
	// rank would otherwise spend waiting, polling so early requesters are
	// not starved.
	wait := r.SplitBarrier()
	lbt := bpool.get()
	lbt.loadPtr(store.local)
	lbt.run(r, in, &cfg, 0, nil, false, out, cfg.PollEvery)
	bpool.put(lbt)
	wait()

	// Pull every remote read once; alignments run in the callback. The
	// "pull" direction keeps peak memory at MaxOutstanding batches: no
	// unsolicited pushes can pile up (§3.2). Reads are batched per owner
	// when FetchBatch > 1.
	tb := r.Tracer()
	var scratch seqScratch
	dec := newReadDecoder(r, in)
	issue := func(ids []seq.ReadID) {
		batch := append([]seq.ReadID(nil), ids...)
		out.WireFetches += len(batch)
		// Charge the response's planned size against the in-flight meter at
		// issue time; the callback releases it. Both run on this rank's
		// goroutine (progress contract), so no synchronisation is needed.
		var est int64
		longest := 0 // of the batch: its one decode buffer is sized for it
		for _, id := range batch {
			est += int64(in.planSize(id))
			longest = max(longest, int(in.Lens[id]))
		}
		meter.add(est)
		owner := in.Part.Owner(batch[0])
		r.AsyncCall(owner, encodeReadReq(batch...), func(val []byte) {
			meter.sub(est)
			n := int64(len(val))
			r.Alloc(n)
			defer r.Free(n)
			tBatch := tb.Now()
			tasksRun := 0
			buf := val
			// Check a decode buffer out for the whole batch: the Progress
			// calls below can run other completion callbacks before this one
			// returns, and each needs its own buffer.
			dbuf := scratch.get(longest)
			defer scratch.put(dbuf)
			for _, rid := range batch {
				read, used, err := dec.decode(dbuf, buf)
				if err != nil || read.ID != rid {
					fail(&ExchangeError{r.Rank(), owner, fmt.Sprintf("bad RPC payload for read %d: %v", rid, err)})
					return
				}
				buf = buf[used:]
				if cache != nil {
					// Keep an owned copy for reuse by later Runs (read.Seq
					// aliases the scratch buffer), pinned until this read's
					// tasks are done.
					var cp seq.Seq
					if read.Seq != nil {
						cp = read.Seq.Clone()
					}
					cache.Insert(rid, cp, int64(in.planSize(rid)), 1)
				}
				// Application-level polling (§3.2) continues inside run:
				// inbound requests are answered between alignments so peers
				// are not starved while this rank chews a long task batch.
				gbt := bpool.get()
				gbt.loadPtr(store.byRemote[rid])
				gbt.run(r, in, &cfg, rid, read.Seq, true, out, cfg.PollEvery)
				bpool.put(gbt)
				tasksRun += len(store.byRemote[rid])
				if cache != nil {
					cache.Release(rid, 1)
				}
			}
			tb.Span(trace.KindBatch, tBatch, int64(tasksRun))
			if len(buf) != 0 {
				fail(&ExchangeError{r.Rank(), owner, fmt.Sprintf("%d trailing payload bytes", len(buf))})
			}
		})
		if r.Outstanding() > cfg.MaxOutstanding {
			r.Drain(cfg.MaxOutstanding)
		}
	}
	var pend []seq.ReadID
	for _, rid := range store.order {
		if cache != nil {
			// The fetch decision: a resident read (retained by an earlier
			// Run) runs its alignments without touching the wire.
			if bases, ok := cache.Acquire(rid, 1); ok {
				out.CacheHits++
				hbt := bpool.get()
				hbt.loadPtr(store.byRemote[rid])
				hbt.run(r, in, &cfg, rid, bases, true, out, cfg.PollEvery)
				bpool.put(hbt)
				cache.Release(rid, 1)
				continue
			}
		}
		if len(pend) > 0 && (in.Part.Owner(pend[0]) != in.Part.Owner(rid) || len(pend) >= cfg.FetchBatch) {
			issue(pend)
			pend = pend[:0]
		}
		pend = append(pend, rid)
	}
	if len(pend) > 0 {
		issue(pend)
	}
	r.Drain(0)

	// Single exit barrier: partitioned reads remain available to all
	// parallel processors until every task is complete.
	r.Barrier()
	if cbErr != nil {
		return nil, cbErr
	}
	return out, nil
}
