package core

import "gnbody/internal/rt"

// RunAsync executes the asynchronous driver on one rank (§3.2): tasks are
// indexed under their remote read; after a split-phase entry barrier
// (local-local tasks overlap other ranks' arrival), the rank pulls every
// distinct remote read once with a bounded number of requests outstanding,
// and every alignment waiting on a read runs as soon as it arrives. A
// single exit barrier keeps the partitioned reads servable until all ranks
// complete. Collective.
//
// Config.FetchBatch > 1 is the §5 aggregation variant: one RPC pulls up to
// that many same-owner reads — the knob §5 predicts high-latency networks
// will need.
func RunAsync(r rt.Runtime, in *Input, cfg Config) (*Result, error) {
	return runAsync(r, in, cfg, false)
}

// runAsync is the one asynchronous driver. With steal set the unissued tail
// of the queue below is open to other ranks, and a rank that has emptied its
// own goes looking for theirs (steal.go).
func runAsync(r rt.Runtime, in *Input, cfg Config, steal bool) (*Result, error) {
	f, end, err := begin(r, in, &cfg)
	if err != nil {
		return nil, err
	}
	defer end()
	out := f.out
	var store *ptrStore
	r.Timed(rt.CatOverhead, func() { store = buildPtrStore(in, r.Rank()) })
	out.LocalTasks = len(store.local)
	out.RemoteTasks = len(in.Tasks) - len(store.local)
	out.RemoteReads = len(store.order)

	// store.order[q.next..q.tail] is unclaimed: this rank consumes from the
	// front, steal requests pop from the tail.
	q := &groupQueue{store: store, tail: len(store.order) - 1}

	// Serve lookups into this rank's partition. The split-phase barrier
	// below guarantees no request arrives before every rank has registered.
	serve := readServer(f)
	if steal {
		serve = q.serveSteals(f, serve)
	}
	r.Serve(serve)

	// Split-phase barrier: compute local-local tasks during the time this
	// rank would otherwise spend waiting, polling so early requesters are
	// not starved.
	wait := r.SplitBarrier()
	f.runGroup(store.local, 0, nil, false)
	wait()

	// Pull every remote read of the queue once; the fetcher runs its group.
	for q.next <= q.tail {
		rid := store.order[q.next]
		q.next++
		f.fetch(waiter{id: rid, tasks: store.byRemote[rid]})
		if r.Outstanding() > cfg.MaxOutstanding {
			r.Drain(cfg.MaxOutstanding)
		}
	}
	f.flush()
	r.Drain(0)
	if steal {
		stealFromPeers(f)
	}

	// Single exit barrier: partitioned reads remain available to all
	// parallel processors (and empty steal responses keep peers' sweeps
	// terminating) until every task is complete.
	r.Barrier()
	out.unreturned = f.scratch.out + f.depth
	if f.err != nil {
		return nil, f.err
	}
	return out, nil
}
