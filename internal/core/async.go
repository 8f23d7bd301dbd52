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

	// Serve lookups into this rank's partition. The split-phase barrier
	// below guarantees no request arrives before every rank has registered.
	r.Serve(readServer(f))

	// Split-phase barrier: compute local-local tasks during the time this
	// rank would otherwise spend waiting, polling so early requesters are
	// not starved.
	wait := r.SplitBarrier()
	f.runGroup(store.local, 0, nil, false)
	wait()

	// Pull every remote read once; the fetcher runs its group.
	for _, rid := range store.order {
		f.fetch(waiter{id: rid, tasks: store.byRemote[rid]})
		if r.Outstanding() > cfg.MaxOutstanding {
			r.Drain(cfg.MaxOutstanding)
		}
	}
	f.flush()
	r.Drain(0)

	// Single exit barrier: partitioned reads remain available to all
	// parallel processors until every task is complete.
	r.Barrier()
	out.unreturned = f.scratch.out + f.depth
	if f.err != nil {
		return nil, f.err
	}
	return out, nil
}
