package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"

	"gnbody/internal/rt"
	"gnbody/internal/topo"
	"gnbody/internal/trace"
)

// proc states observed by the scheduler after a yield.
const (
	stateReady   = iota // runnable at p.clock
	stateWaiting        // runnable at its earliest inbound event
)

// proc is one simulated rank: an rt.Runtime whose clock is virtual.
type proc struct {
	id  int
	eng *Engine

	clock    int64 // virtual ns
	state    int
	parked   bool
	finished bool
	pqStamp  int64

	events   eventHeap
	releases []*event // collective releases awaiting their wait call
	pending  map[uint32]func([]byte)
	nextSeq  uint32
	handler  func([]byte) []byte
	rng      *rand.Rand

	met rt.Metrics

	// tr is this rank's trace buffer (virtual-clock stamps; nil when
	// tracing is disabled); pendT0 holds per-RPC issue times, allocated
	// only when tracing.
	tr     *trace.Buf
	pendT0 map[uint32]int64

	resume chan struct{}
}

var _ rt.Runtime = (*proc)(nil)

func (p *proc) stateParked() bool { return p.parked }

func (p *proc) main(body func(rt.Runtime)) {
	<-p.resume
	body(p)
	p.finished = true
	p.met.Elapsed = time.Duration(p.clock)
	p.eng.back <- struct{}{}
}

// yield hands control back to the scheduler and blocks until resumed.
func (p *proc) yield(state int) {
	p.state = state
	p.eng.back <- struct{}{}
	<-p.resume
}

// advance moves this rank's clock forward by d, yielding so virtual-time
// order is preserved across ranks.
//
// Fast path: the scheduler queue's minimum wake time is a lower bound on
// when any other runnable rank can act (stale entries only understate it),
// and parked ranks act only when this rank posts to them — so if the new
// clock does not overtake that bound, no event can be generated before it
// and the yield is skipped.
func (p *proc) advance(d int64) {
	if d < 0 {
		panic("sim: negative time advance")
	}
	p.clock += d
	e := p.eng
	if len(e.pq) == 0 || p.clock <= e.pq[0].wake {
		return
	}
	p.yield(stateReady)
}

// waitEvent parks until the earliest inbound event, charging the idle gap
// to cat. The caller must have drained all ready events first.
func (p *proc) waitEvent(cat rt.Category) {
	p.yield(stateWaiting)
	if len(p.events) == 0 {
		panic(fmt.Sprintf("sim: rank %d resumed from waitEvent with no events", p.id))
	}
	if a := p.events[0].arrival; a > p.clock {
		p.met.Time[cat] += time.Duration(a - p.clock)
		p.clock = a
	}
}

// handleReady processes every inbound event that has already arrived.
// Collective releases are stashed for their wait call (a rank polling
// between split-barrier entry and wait must not consume its own release).
func (p *proc) handleReady() bool {
	did := false
	for len(p.events) > 0 && p.events[0].arrival <= p.clock {
		ev := heap.Pop(&p.events).(*event)
		if ev.kind >= evBarRel {
			p.releases = append(p.releases, ev)
			continue
		}
		p.dispatch(ev)
		did = true
	}
	return did
}

// dispatch handles one request or response event.
func (p *proc) dispatch(ev *event) {
	switch ev.kind {
	case evRequest:
		p.serve(ev)
	case evResponse:
		cb, ok := p.pending[ev.seq]
		if !ok {
			panic(fmt.Sprintf("sim: rank %d got response for unknown seq %d", p.id, ev.seq))
		}
		delete(p.pending, ev.seq)
		p.met.BytesRecv += int64(len(ev.val))
		// Receive-side processing (rendezvous copy, payload landing) is
		// CPU time proportional to the payload — unhidden communication.
		// Intranode responses arrive through the shared-memory segment at
		// negligible per-byte cost.
		if !p.sameNode(ev.from) {
			if d := int64(len(ev.val)) * int64(p.eng.cfg.Machine.ByteTime); d > 0 {
				p.met.Time[rt.CatComm] += time.Duration(d)
				p.advance(d)
			}
		}
		if p.tr != nil {
			p.tr.Event(trace.KindRPC, p.pendT0[ev.seq], p.clock, int64(len(ev.val)))
			delete(p.pendT0, ev.seq)
		}
		cb(ev.val)
	default:
		panic(fmt.Sprintf("sim: rank %d cannot dispatch event kind %d", p.id, ev.kind))
	}
}

// takeRelease removes and returns a stashed release of the given kind.
func (p *proc) takeRelease(relKind int) *event {
	for i, ev := range p.releases {
		if ev.kind == relKind {
			p.releases = append(p.releases[:i], p.releases[i+1:]...)
			return ev
		}
	}
	return nil
}

// serve answers one inbound RPC request: service overhead on this rank's
// CPU (a yielding advance, so virtual-time order is preserved), then the
// response wings its way back.
func (p *proc) serve(ev *event) {
	if p.handler == nil {
		panic(fmt.Sprintf("sim: rank %d received request before Serve", p.id))
	}
	tEnter := p.clock
	// Snapshot the response: it travels by reference until the caller's
	// event loop reaches it, and the handler may rebuild its next response
	// in the same buffer before then.
	val := p.handler(ev.val)
	if len(val) > 0 {
		val = append([]byte(nil), val...)
	}
	m := &p.eng.cfg.Machine
	// Service occupancy: dequeue + lookup + injecting the payload. The
	// per-byte term (NIC injection — internode only; intranode RPCs ride
	// the shared-memory segment) makes hot owners a genuine serialization
	// point — the queueing behind "high numbers of outgoing and incoming
	// RPCs" the paper observes at 8-16 nodes (§4.3). It is
	// communication-engine work, so it accrues to CatComm on the server.
	occ := int64(m.ServeOverhead)
	if !p.sameNode(ev.from) {
		occ += int64(len(val)) * int64(m.ByteTime)
	}
	d := p.noisy(occ)
	p.met.Time[rt.CatComm] += time.Duration(d)
	p.advance(d)
	p.met.RPCserved++
	p.met.BytesSent += int64(len(val))
	p.met.Msgs++
	if p.sameNode(ev.from) {
		p.met.IntraBytes += int64(len(val))
	} else {
		p.met.InterBytes += int64(len(val))
	}
	p.tr.Event(trace.KindServe, tEnter, p.clock, int64(len(val)))
	arr := p.clock + p.linkAlpha(ev.from) + int64(len(val))*p.linkByteTime(ev.from)
	p.eng.post(ev.from, &event{arrival: arr, kind: evResponse, from: p.id, seq: ev.seq, val: val})
}

// sameNode reports whether rank q shares this rank's node.
func (p *proc) sameNode(q int) bool {
	return p.eng.tm.SameNode(p.id, q)
}

// linkAlpha returns the one-way latency to rank q.
func (p *proc) linkAlpha(q int) int64 {
	m := &p.eng.cfg.Machine
	if p.sameNode(q) {
		return int64(m.intraAlpha())
	}
	return int64(m.Alpha)
}

// linkByteTime returns the per-byte cost to rank q.
func (p *proc) linkByteTime(q int) int64 {
	m := &p.eng.cfg.Machine
	if p.sameNode(q) {
		return int64(m.intraByteTime())
	}
	return int64(m.ByteTime)
}

// noisy stretches a compute duration by the machine's OS-noise factor.
func (p *proc) noisy(d int64) int64 {
	n := p.eng.cfg.Machine.Noise
	if n <= 0 || d <= 0 {
		return d
	}
	return d + int64(float64(d)*n*p.rng.Float64())
}

// --- rt.Runtime ---

// Rank returns this rank's id.
func (p *proc) Rank() int { return p.id }

// Size returns the simulated rank count.
func (p *proc) Size() int { return p.eng.p }

// collectiveWait drains ready events until a release of kind relKind is
// consumed; idle gaps accrue to cat. Returns the release event.
func (p *proc) collectiveWait(relKind int, cat rt.Category) *event {
	for {
		if ev := p.takeRelease(relKind); ev != nil {
			return ev
		}
		for len(p.events) > 0 && p.events[0].arrival <= p.clock {
			ev := heap.Pop(&p.events).(*event)
			if ev.kind == relKind {
				return ev
			}
			if ev.kind >= evBarRel {
				p.releases = append(p.releases, ev)
				continue
			}
			p.dispatch(ev)
		}
		if ev := p.takeRelease(relKind); ev != nil {
			return ev
		}
		p.waitEvent(cat)
	}
}

// barrierArrive registers arrival at collective c; the last arriver runs
// release(t0) with t0 = the synchronisation point (max arrival), which must
// post the release events.
func (p *proc) barrierArrive(c *collective, release func(t0 int64)) {
	c.arriveAt[p.id] = p.clock
	if p.clock > c.maxT {
		c.maxT = p.clock
	}
	c.arrived++
	if c.arrived == p.eng.p {
		t0 := c.maxT
		c.arrived = 0
		c.maxT = 0
		release(t0)
	}
}

// Barrier blocks until all ranks arrive, servicing RPCs while waiting.
func (p *proc) Barrier() {
	e := p.eng
	tEnter := p.clock
	p.barrierArrive(&e.bar, func(t0 int64) {
		for q := 0; q < e.p; q++ {
			e.post(q, &event{arrival: t0 + e.cfg.Machine.alphaLog(e.p), kind: evBarRel, t0: t0})
		}
	})
	ev := p.collectiveWait(evBarRel, rt.CatSync)
	if ev.arrival > p.clock {
		p.met.Time[rt.CatSync] += time.Duration(ev.arrival - p.clock)
		p.clock = ev.arrival
	}
	p.tr.Event(trace.KindBarrier, tEnter, p.clock, 0)
}

// SplitBarrier enters phase one; the returned wait performs phase two.
func (p *proc) SplitBarrier() (wait func()) {
	e := p.eng
	p.barrierArrive(&e.split, func(t0 int64) {
		for q := 0; q < e.p; q++ {
			e.post(q, &event{arrival: t0 + e.cfg.Machine.alphaLog(e.p), kind: evSplitRel, t0: t0})
		}
	})
	return func() {
		tEnter := p.clock
		ev := p.collectiveWait(evSplitRel, rt.CatSync)
		if ev.arrival > p.clock {
			p.met.Time[rt.CatSync] += time.Duration(ev.arrival - p.clock)
			p.clock = ev.arrival
		}
		p.tr.Event(trace.KindSplitBarrier, tEnter, p.clock, 0)
	}
}

// Alltoallv performs the irregular all-to-all under the LogGP model:
// arrival skew accrues to CatSync; the priced transfer (exchangeCost)
// accrues to CatComm.
func (p *proc) Alltoallv(send [][]byte) [][]byte {
	e := p.eng
	if len(send) != e.p {
		panic(fmt.Sprintf("sim: Alltoallv send has %d entries, want %d", len(send), e.p))
	}
	tEnter := p.clock
	for _, mbuf := range send {
		p.met.BytesSent += int64(len(mbuf))
		if len(mbuf) > 0 {
			p.met.Msgs++
		}
	}
	c := &e.a2a
	if c.store == nil {
		c.store = make([][][]byte, e.p)
	}
	c.store[p.id] = send
	p.barrierArrive(c, func(t0 int64) {
		// One O(P²) pass transposes the rows and lists the non-empty cells;
		// topo routes them, which yields both the tier bytes dist would put
		// on the wire and the loads the exchange is priced from. (Writes
		// into peer procs' metrics are safe: the release closure runs under
		// the strict scheduler handoff.)
		recvs := make([][][]byte, e.p)
		for q := range recvs {
			recvs[q] = make([][]byte, e.p)
		}
		var cells []topo.Traffic
		for src, row := range c.store {
			for dst, buf := range row {
				recvs[dst][src] = buf
				if len(buf) > 0 {
					cells = append(cells, topo.Traffic{Src: src, Dst: dst, Bytes: int64(len(buf))})
				}
			}
		}
		// Every cell comes from the p×p store, so none is out of range.
		routed, _ := e.tm.Route(cells, e.cfg.Hierarchical)
		for q, pr := range e.procs {
			pr.met.IntraBytes += routed.Intra[q]
			pr.met.InterBytes += routed.Inter[q]
		}
		done := t0 + exchangeCost(&e.cfg.Machine, e.tm, routed)
		for q := 0; q < e.p; q++ {
			// The release lands at the sync point t0 so the wait loop
			// charges only skew to CatSync; the transfer window
			// [t0, done] is charged to CatComm below.
			e.post(q, &event{arrival: t0, kind: evA2ARel, t0: t0, done: done, recv: recvs[q]})
		}
	})
	ev := p.collectiveWait(evA2ARel, rt.CatSync)
	if ev.t0 > p.clock {
		p.met.Time[rt.CatSync] += time.Duration(ev.t0 - p.clock)
		p.clock = ev.t0
	}
	if ev.done > p.clock {
		p.met.Time[rt.CatComm] += time.Duration(ev.done - p.clock)
		p.clock = ev.done
	}
	var rb int64
	for _, mbuf := range ev.recv {
		rb += int64(len(mbuf))
	}
	p.met.BytesRecv += rb
	p.tr.Event(trace.KindExchange, tEnter, p.clock, rb)
	return ev.recv
}

// Allreduce combines v across ranks at tree-latency cost (CatSync).
func (p *proc) Allreduce(v int64, op rt.Op) int64 {
	e := p.eng
	c := &e.red
	c.vals[p.id] = v
	p.barrierArrive(c, func(t0 int64) {
		acc := c.vals[0]
		for i := 1; i < e.p; i++ {
			acc = op.Combine(acc, c.vals[i])
		}
		for q := 0; q < e.p; q++ {
			e.post(q, &event{arrival: t0 + 2*e.cfg.Machine.alphaLog(e.p), kind: evRedRel, t0: t0, red: acc})
		}
	})
	ev := p.collectiveWait(evRedRel, rt.CatSync)
	if ev.arrival > p.clock {
		p.met.Time[rt.CatSync] += time.Duration(ev.arrival - p.clock)
		p.clock = ev.arrival
	}
	return ev.red
}

// Serve registers the RPC handler.
func (p *proc) Serve(handler func([]byte) []byte) { p.handler = handler }

// requestEnvelope is the on-wire overhead of a request (headers).
const requestEnvelope = 8

// AsyncCall issues an RPC: injection overhead now, response later.
func (p *proc) AsyncCall(owner int, req []byte, cb func([]byte)) {
	if cb == nil {
		panic("sim: AsyncCall requires a callback")
	}
	m := &p.eng.cfg.Machine
	seq := p.nextSeq
	p.nextSeq++
	p.pending[seq] = cb
	if p.tr != nil {
		p.pendT0[seq] = p.clock
		p.tr.Outstanding(len(p.pending))
	}
	p.met.RPCsSent++
	p.met.Msgs++
	wire := int64(len(req)) + requestEnvelope
	p.met.BytesSent += wire
	if p.sameNode(owner) {
		p.met.IntraBytes += wire
	} else {
		p.met.InterBytes += wire
	}
	d := p.noisy(int64(m.RPCOverhead))
	p.met.Time[rt.CatComm] += time.Duration(d)
	arr := p.clock + d + p.linkAlpha(owner) + wire*p.linkByteTime(owner)
	p.eng.post(owner, &event{arrival: arr, kind: evRequest, from: p.id, seq: seq, val: req})
	p.advance(d)
}

// Progress services arrived requests and runs ready callbacks.
func (p *proc) Progress() bool {
	// Yield first so peers with earlier clocks can post events that are
	// due before our current time.
	p.advance(0)
	return p.handleReady()
}

// Outstanding reports in-flight AsyncCalls.
func (p *proc) Outstanding() int { return len(p.pending) }

// Drain blocks until Outstanding() <= max; idle time is unhidden
// communication latency (CatComm).
func (p *proc) Drain(max int) {
	tEnter := p.clock
	for len(p.pending) > max {
		if p.handleReady() {
			continue
		}
		p.waitEvent(rt.CatComm)
	}
	p.tr.Event(trace.KindDrain, tEnter, p.clock, int64(max))
}

// Charge advances virtual time (with OS noise applied to compute).
func (p *proc) Charge(cat rt.Category, d time.Duration) {
	dd := int64(d)
	if cat == rt.CatAlign || cat == rt.CatOverhead {
		dd = p.noisy(dd)
	}
	p.met.Time[cat] += time.Duration(dd)
	rt.TraceCompute(p.tr, cat, p.clock, p.clock+dd)
	p.advance(dd)
}

// Timed executes f with no virtual-time attribution: model back-ends
// charge explicitly.
func (p *proc) Timed(_ rt.Category, f func()) { f() }

// Alloc tracks n live bytes.
func (p *proc) Alloc(n int64) { p.met.Alloc(n) }

// Free releases n tracked bytes.
func (p *proc) Free(n int64) { p.met.Free(n) }

// MemBudget returns the per-rank exchange budget.
func (p *proc) MemBudget() int64 { return p.eng.cfg.MemBudget }

// Metrics exposes this rank's accounting.
func (p *proc) Metrics() *rt.Metrics { return &p.met }

// Tracer returns this rank's trace buffer (nil when tracing is disabled).
func (p *proc) Tracer() *trace.Buf { return p.tr }
