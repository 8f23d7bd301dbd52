package core

import (
	"encoding/binary"
	"fmt"

	"gnbody/internal/overlap"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
	"gnbody/internal/trace"
)

// RunAsyncStealing is the asynchronous driver extended with dynamic load
// balancing — the future work §5 motivates: "The variability in
// computational costs ... perhaps motivates a dynamic approach, but whether
// the performance improvements can compensate for the overheads of dynamic
// load balancing in practice will be the question."
//
// The static structure is RunAsync's. Additionally, every rank exposes the
// *unissued tail* of its remote-read task groups to work stealing: a rank
// that exhausts its own queue probes peers with reqSteal; a victim hands
// over up to StealBatch groups from the tail of its queue. The thief must
// then fetch *both* reads of each stolen task (neither may be local to
// it) — the very overhead the paper's question is about, measured here by
// the extra RPC traffic and the stolen-task counters.
//
// The result-set invariant is unchanged: hits across ranks equal the
// serial reference (the ablation benches compare sync time and runtime
// against RunAsync).
func RunAsyncStealing(r rt.Runtime, in *Input, cfg Config) (*Result, error) {
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
	fc := newFetchCtx(r, in, &meter, out, cfg.Cache)
	if fc.cache != nil {
		unbind := fc.cache.bind(r)
		defer unbind()
	}

	// The steal queue: store.order[next..tail] is unclaimed. The owner
	// consumes from the front; steal requests pop from the tail. Both run
	// on this rank's goroutine (handlers execute during polling), so plain
	// variables suffice.
	next, tail := 0, len(store.order)-1

	var cbErr error
	fail := func(err error) {
		if cbErr == nil {
			cbErr = err
		}
	}
	readHandler := readServer(r, in, fail)
	r.Serve(func(req []byte) []byte {
		if len(req) > 0 && req[0] == reqSteal {
			if len(req) != 5 {
				fail(&ExchangeError{r.Rank(), -1, fmt.Sprintf("ragged steal request (%d bytes)", len(req))})
				return nil
			}
			max := int(binary.LittleEndian.Uint32(req[1:]))
			var bundle []byte
			for n := 0; n < max && next <= tail; n++ {
				rid := store.order[tail]
				tail--
				bundle = appendStolenGroup(bundle, rid, store.byRemote[rid])
				out.TasksShed += len(store.byRemote[rid])
			}
			return bundle
		}
		return readHandler(req)
	})

	// Batchers are pooled, not shared: a Progress call inside one group's
	// loop can start another group's completion callback (DESIGN.md §16).
	var bpool batchPool
	wait := r.SplitBarrier()
	lbt := bpool.get()
	lbt.loadPtr(store.local)
	lbt.run(r, in, &cfg, 0, nil, false, out, cfg.PollEvery)
	bpool.put(lbt)
	wait()

	// Phase 1: own queue, front to wherever stealing leaves it. Every pull
	// routes through the fetch context: with the cache it is the decision
	// point and the retention; without, it decodes into pooled scratch.
	for next <= tail {
		rid := store.order[next]
		next++
		tasks := store.byRemote[rid]
		fc.fetch(rid, true, func(s seq.Seq, err error) {
			if err != nil {
				fail(err)
				return
			}
			cbt := bpool.get()
			cbt.loadPtr(tasks)
			cbt.run(r, in, &cfg, rid, s, true, out, cfg.PollEvery)
			bpool.put(cbt)
			fc.doneSeq(rid, s)
		})
		if r.Outstanding() > cfg.MaxOutstanding {
			r.Drain(cfg.MaxOutstanding)
		}
	}
	r.Drain(0)

	// Phase 2: steal. Sweep the other ranks; stop after a full sweep
	// yields nothing anywhere.
	pendingWork := 0
	tb := r.Tracer()
	if r.Size() > 1 {
		for {
			gotAny := false
			for off := 1; off < r.Size(); off++ {
				victim := (r.Rank() + off) % r.Size()
				var req [5]byte
				req[0] = reqSteal
				binary.LittleEndian.PutUint32(req[1:], uint32(cfg.StealBatch))
				// The bundle is decoded inside the callback: the response
				// buffer is the runtime's again once the callback returns.
				var groups []stolenGroup
				var err error
				tProbe := tb.Now()
				r.AsyncCall(victim, req[:], func(val []byte) {
					groups, err = decodeStolenGroups(val)
				})
				r.Drain(0)
				if err != nil {
					fail(&ExchangeError{r.Rank(), victim, fmt.Sprintf("bad steal bundle: %v", err)})
				}
				if len(groups) == 0 {
					tb.Span(trace.KindSteal, tProbe, 0) // failed probe
					continue
				}
				gotAny = true
				tb.Span(trace.KindSteal, tProbe, int64(len(groups)))
				for _, g := range groups {
					out.TasksStolen += len(g.tasks)
					pendingWork++
					runStolenGroupImpl(r, in, &cfg, fc, g, out, &pendingWork, &cbErr)
					if r.Outstanding() > cfg.MaxOutstanding {
						r.Drain(cfg.MaxOutstanding)
					}
				}
				// Finish this haul before probing further: steal targets
				// shift as queues drain.
				for pendingWork > 0 {
					r.Drain(0)
					if pendingWork > 0 {
						r.Progress()
					}
				}
			}
			if !gotAny {
				break
			}
		}
	}
	r.Drain(0)

	// Single exit barrier: reads stay servable (and empty steal responses
	// keep peers' sweeps terminating) until every rank is done.
	r.Barrier()
	if cbErr != nil {
		return nil, cbErr
	}
	return out, nil
}

// stolenGroup is one remote-read task group handed to a thief.
type stolenGroup struct {
	rid   seq.ReadID
	tasks []overlap.Task
}

// stolenTaskWire is the per-task wire size inside a steal bundle.
const stolenTaskWire = 19

func appendStolenGroup(dst []byte, rid seq.ReadID, tasks []*overlap.Task) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(rid))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(tasks)))
	dst = append(dst, hdr[:]...)
	for _, t := range tasks {
		var rec [stolenTaskWire]byte
		binary.LittleEndian.PutUint32(rec[0:], uint32(t.A))
		binary.LittleEndian.PutUint32(rec[4:], uint32(t.B))
		binary.LittleEndian.PutUint32(rec[8:], uint32(t.Seed.PosA))
		binary.LittleEndian.PutUint32(rec[12:], uint32(t.Seed.PosB))
		binary.LittleEndian.PutUint16(rec[16:], uint16(t.Seed.K))
		if t.Seed.RC {
			rec[18] = 1
		}
		dst = append(dst, rec[:]...)
	}
	return dst
}

func decodeStolenGroups(buf []byte) ([]stolenGroup, error) {
	var out []stolenGroup
	for len(buf) > 0 {
		if len(buf) < 8 {
			return nil, fmt.Errorf("short group header")
		}
		g := stolenGroup{rid: seq.ReadID(binary.LittleEndian.Uint32(buf[0:]))}
		n := int(binary.LittleEndian.Uint32(buf[4:]))
		buf = buf[8:]
		if len(buf) < n*stolenTaskWire {
			return nil, fmt.Errorf("short group body")
		}
		for i := 0; i < n; i++ {
			rec := buf[i*stolenTaskWire:]
			g.tasks = append(g.tasks, overlap.Task{
				A: seq.ReadID(binary.LittleEndian.Uint32(rec[0:])),
				B: seq.ReadID(binary.LittleEndian.Uint32(rec[4:])),
				Seed: overlap.Seed{
					PosA: int32(binary.LittleEndian.Uint32(rec[8:])),
					PosB: int32(binary.LittleEndian.Uint32(rec[12:])),
					K:    int16(binary.LittleEndian.Uint16(rec[16:])),
					RC:   rec[18] == 1,
				},
			})
		}
		buf = buf[n*stolenTaskWire:]
		out = append(out, g)
	}
	return out, nil
}

// fetchCtx routes every thief-side read pull through one decision point:
// the local store, the remote-read cache, an already-in-flight pull for the
// same read (coalesced), or — only then — the wire. It is what turns the
// steal driver's degree-k duplication (one pull per stolen task touching a
// hub read) back into one pull per distinct read.
type fetchCtx struct {
	r      rt.Runtime
	in     *Input
	meter  *rpcMeter
	out    *Result
	cache  *ReadCache // nil: cache disabled, decode into pooled scratch
	lo, hi int        // this rank's partition range
	// scratch pools decode buffers for cache-disabled fetches, so stolen
	// tasks (two wire fetches each) stop allocating bases per fetch. The
	// cache-enabled path decodes into fresh bases: Insert retains them.
	scratch seqScratch
	dec     *readDecoder
	// inflight holds, per read currently on the wire, the callbacks of the
	// fetch decisions that arrived while it was in flight. All access is on
	// this rank's goroutine (progress contract).
	inflight map[seq.ReadID][]func(seq.Seq, error)
}

func newFetchCtx(r rt.Runtime, in *Input, meter *rpcMeter, out *Result, cache *ReadCache) *fetchCtx {
	fc := &fetchCtx{r: r, in: in, meter: meter, out: out, cache: cache, dec: newReadDecoder(r, in)}
	fc.lo, fc.hi = in.Part.Range(r.Rank())
	if cache != nil {
		fc.inflight = make(map[seq.ReadID][]func(seq.Seq, error))
	}
	return fc
}

func (fc *fetchCtx) local(id seq.ReadID) bool { return int(id) >= fc.lo && int(id) < fc.hi }

// fetch resolves one read and hands it to cb — synchronously for local or
// cached reads, from a completion callback otherwise. retain declares that
// the callee keeps using the bases after cb returns (the stolen group's
// read, referenced by every nested per-task fetch): on success of a
// non-local retained fetch the callee then owes a release — the cache pin
// when the cache is enabled, the scratch decode buffer otherwise — paid by
// calling doneSeq(id, bases) after its last use; on error nothing is owed.
// A transient fetch (retain=false) may use the bases only inside cb; its
// decode buffer returns to the scratch pool as cb exits (done(id) still
// releases the cache pin when the cache is enabled). cb(nil, err) reports
// decode failures.
func (fc *fetchCtx) fetch(id seq.ReadID, retain bool, cb func(seq.Seq, error)) {
	if fc.local(id) {
		cb(fc.in.localSeq(id), nil)
		return
	}
	if fc.cache != nil {
		if waiters, ok := fc.inflight[id]; ok {
			// A pull for id is already on the wire: ride it rather than
			// fetch again. The completion pins once per rider.
			fc.cache.NoteCoalescedHit()
			fc.out.CacheHits++
			fc.inflight[id] = append(waiters, cb)
			return
		}
		if bases, ok := fc.cache.Acquire(id, 1); ok {
			fc.out.CacheHits++
			cb(bases, nil)
			return
		}
		fc.inflight[id] = nil // mark in flight before going to the wire
	}
	est := int64(fc.in.planSize(id))
	fc.meter.add(est)
	fc.out.WireFetches++
	owner := fc.in.Part.Owner(id)
	fc.r.AsyncCall(owner, encodeReadReq(id), func(val []byte) {
		fc.meter.sub(est)
		n := int64(len(val))
		fc.r.Alloc(n)
		defer fc.r.Free(n)
		if fc.cache == nil {
			// Decode into a pooled buffer instead of allocating per fetch.
			// A retained fetch hands the buffer to the caller with the
			// bases (returned through doneSeq at group completion); a
			// transient one recovers it as soon as cb is done.
			dbuf := fc.scratch.get(int(fc.in.Lens[id]))
			read, used, err := fc.dec.decode(dbuf, val)
			if err != nil || used != len(val) || read.ID != id {
				fc.scratch.put(dbuf)
				cb(nil, fc.badPayload(owner, id, err))
				return
			}
			if retain && read.Seq != nil {
				cb(read.Seq, nil)
				return
			}
			cb(read.Seq, nil)
			fc.scratch.put(dbuf)
			return
		}
		read, used, err := fc.dec.decode(nil, val)
		if err != nil || used != len(val) || read.ID != id {
			err = fc.badPayload(owner, id, err)
			waiters := fc.inflight[id]
			delete(fc.inflight, id)
			for _, w := range waiters {
				w(nil, err)
			}
			cb(nil, err)
			return
		}
		// Plain Decode returned owned bases (the stolen-group paths retain
		// them anyway), so they go into the cache as-is: one pin for this
		// caller plus one per coalesced rider.
		waiters := fc.inflight[id]
		delete(fc.inflight, id)
		fc.cache.Insert(id, read.Seq, est, 1+len(waiters))
		cb(read.Seq, nil)
		for _, w := range waiters {
			w(read.Seq, nil)
		}
	})
}

// badPayload is the error for an owner's response that is not read id.
func (fc *fetchCtx) badPayload(owner int, id seq.ReadID, err error) error {
	return &ExchangeError{fc.r.Rank(), owner, fmt.Sprintf("bad payload for read %d: %v", id, err)}
}

// done releases the pin a successful non-local fetch acquired.
func (fc *fetchCtx) done(id seq.ReadID) {
	if fc.cache == nil || fc.local(id) {
		return
	}
	fc.cache.Release(id, 1)
}

// doneSeq settles whatever a successful retained fetch left owing: the
// cache pin when the cache is enabled, the scratch decode buffer (handed
// over as the bases themselves) otherwise. Local reads owe nothing — the
// bases belong to the store.
func (fc *fetchCtx) doneSeq(id seq.ReadID, bases seq.Seq) {
	if fc.local(id) {
		return
	}
	if fc.cache != nil {
		fc.cache.Release(id, 1)
		return
	}
	fc.scratch.put(bases)
}

// runStolenGroupImpl executes a stolen task group: fetch the group's
// remote read, then per task fetch the other side (the victim's local
// read — usually remote to the thief too: stealing pays double
// communication, which is exactly the overhead §5 asks about).
func runStolenGroupImpl(r rt.Runtime, in *Input, cfg *Config, fc *fetchCtx, g stolenGroup, out *Result, pendingWork *int, cbErr *error) {
	fc.fetch(g.rid, true, func(ridSeq seq.Seq, err error) {
		if err != nil {
			*cbErr = err
			*pendingWork--
			return
		}
		remaining := len(g.tasks)
		if remaining == 0 {
			fc.doneSeq(g.rid, ridSeq)
			*pendingWork--
			return
		}
		for _, t := range g.tasks {
			t := t
			other := t.A
			if other == g.rid {
				other = t.B
			}
			fc.fetch(other, false, func(otherSeq seq.Seq, err error) {
				if err != nil {
					*cbErr = err
				} else {
					var a, b seq.Seq
					if in.Store != nil || otherSeq != nil || ridSeq != nil {
						if t.A == g.rid {
							a, b = ridSeq, otherSeq
						} else {
							a, b = otherSeq, ridSeq
						}
					}
					if res, ok := cfg.Exec.Align(r, t, a, b); ok && res.Score >= cfg.MinScore {
						out.Hits = append(out.Hits, mkHit(t, res))
					}
					fc.done(other)
				}
				remaining--
				if remaining == 0 {
					// The group's read outlives every per-task fetch: its
					// retention (cache pin or scratch buffer) drops only
					// when the last task completes.
					fc.doneSeq(g.rid, ridSeq)
					*pendingWork--
				}
			})
		}
	})
}
