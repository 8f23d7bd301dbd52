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
// The driver is RunAsync's (runAsync); this file holds what stealing adds.
// Every rank exposes the *unissued tail* of its remote-read task groups; a
// rank that exhausts its own queue probes peers with reqSteal, and a victim
// hands over up to StealBatch groups from its tail. The thief must then
// fetch *both* reads of each stolen task (neither may be local to it) — the
// very overhead the paper's question is about, measured by the extra RPC
// traffic and the stolen-task counters. Hits across ranks still equal the
// serial reference.
func RunAsyncStealing(r rt.Runtime, in *Input, cfg Config) (*Result, error) {
	return runAsync(r, in, cfg, true)
}

// groupQueue is a rank's queue of remote-read task groups. The rank and its
// steal handler run on one goroutine (handlers execute during polling), so
// plain fields suffice.
type groupQueue struct {
	store      *ptrStore
	next, tail int
}

// serveSteals wraps the read handler with the steal op: a reqSteal request
// takes up to its max groups off the tail of the queue.
func (q *groupQueue) serveSteals(f *fetcher, reads func([]byte) []byte) func([]byte) []byte {
	return func(req []byte) []byte {
		if len(req) == 0 || req[0] != reqSteal {
			return reads(req)
		}
		if len(req) != 5 {
			f.fail(&ExchangeError{f.r.Rank(), -1, fmt.Sprintf("ragged steal request (%d bytes)", len(req))})
			return nil
		}
		max := int(binary.LittleEndian.Uint32(req[1:]))
		var bundle []byte
		for n := 0; n < max && q.next <= q.tail; n++ {
			rid := q.store.order[q.tail]
			q.tail--
			bundle = appendStolenGroup(bundle, rid, q.store.byRemote[rid])
			f.out.TasksShed += len(q.store.byRemote[rid])
		}
		return bundle
	}
}

// stealFromPeers is the probe phase, entered with this rank's own queue
// done: sweep the other ranks until a full sweep yields nothing anywhere.
func stealFromPeers(f *fetcher) {
	r, cfg := f.r, f.cfg
	tb := r.Tracer()
	pendingWork := 0
	for gotAny := true; gotAny; {
		gotAny = false
		for off := 1; off < r.Size(); off++ {
			victim := (r.Rank() + off) % r.Size()
			req := binary.LittleEndian.AppendUint32([]byte{reqSteal}, uint32(cfg.StealBatch))
			// The bundle is decoded inside the callback: the response
			// buffer is the runtime's again once the callback returns.
			var groups []stolenGroup
			var err error
			tProbe := tb.Now()
			r.AsyncCall(victim, req, func(val []byte) {
				groups, err = decodeStolenGroups(val)
			})
			r.Drain(0)
			if err == nil {
				err = checkStolen(f.in, groups)
			}
			if err != nil {
				f.fail(&ExchangeError{r.Rank(), victim, fmt.Sprintf("bad steal bundle: %v", err)})
				groups = nil
			}
			tb.Span(trace.KindSteal, tProbe, int64(len(groups))) // 0: failed probe
			if len(groups) == 0 {
				continue
			}
			gotAny = true
			for _, g := range groups {
				f.out.TasksStolen += len(g.tasks)
				pendingWork++
				runStolenGroup(f, g, &pendingWork)
				if r.Outstanding() > cfg.MaxOutstanding {
					r.Drain(cfg.MaxOutstanding)
				}
			}
			// Finish this haul before probing further: steal targets
			// shift as queues drain.
			f.flush()
			for pendingWork > 0 {
				r.Drain(0)
				if pendingWork > 0 {
					r.Progress()
				}
			}
		}
	}
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

// checkStolen holds a decoded bundle to the thief's Input before anything in
// it is fetched: every read id must index the length vector (the partition
// names no owner past it), every task must belong to its group's read, and
// every seed must lie inside both reads, which the aligner takes on trust.
func checkStolen(in *Input, groups []stolenGroup) error {
	n := len(in.Lens)
	for _, g := range groups {
		if int(g.rid) >= n {
			return fmt.Errorf("group read %d of %d", g.rid, n)
		}
		for _, t := range g.tasks {
			if int(t.A) >= n || int(t.B) >= n || (t.A != g.rid && t.B != g.rid) {
				return fmt.Errorf("task (%d, %d) in the group of read %d of %d", t.A, t.B, g.rid, n)
			}
			s := t.Seed
			if s.PosA < 0 || s.PosB < 0 || s.K <= 0 ||
				int64(s.PosA)+int64(s.K) > int64(in.Lens[t.A]) || int64(s.PosB)+int64(s.K) > int64(in.Lens[t.B]) {
				return fmt.Errorf("task (%d, %d): seed (%d, %d)+%d outside reads of length %d, %d",
					t.A, t.B, s.PosA, s.PosB, s.K, in.Lens[t.A], in.Lens[t.B])
			}
		}
	}
	return nil
}

// runStolenGroup executes a stolen task group: fetch the group's remote
// read, then per task fetch the other side (the victim's local read —
// usually remote to the thief too: stealing pays double communication,
// which is exactly the overhead §5 asks about). *pendingWork drops by one
// when the group is finished, whether or not its reads could be had.
func runStolenGroup(f *fetcher, g stolenGroup, pendingWork *int) {
	f.fetch(waiter{id: g.rid, retain: true, cb: func(ridSeq seq.Seq, ok bool) {
		// The group's read outlives every per-task fetch: its retention
		// (cache pin or scratch buffer) drops with the last hold — one per
		// task and one for this callback.
		holds := 1
		drop := func() {
			if holds--; holds > 0 {
				return
			}
			if ok {
				f.release(g.rid, ridSeq)
			}
			*pendingWork--
		}
		if ok {
			holds += len(g.tasks)
			for _, t := range g.tasks {
				other := t.A
				if other == g.rid {
					other = t.B
				}
				f.fetch(waiter{id: other, cb: func(otherSeq seq.Seq, got bool) {
					if got {
						a, b := otherSeq, ridSeq
						if t.A == g.rid {
							a, b = ridSeq, otherSeq
						}
						if res, hit := f.cfg.Exec.Align(f.r, t, a, b); hit && res.Score >= f.cfg.MinScore {
							f.out.Hits = append(f.out.Hits, mkHit(t, res))
						}
					}
					drop()
				}})
			}
			// The other sides are mostly the victim's own reads: one
			// owner, so they share requests FetchBatch at a time.
			f.flush()
		}
		drop()
	}})
}
