// The request/response RPC engine that package dist drives over a
// Transport. The engine owns the state machine — seq allocation, the
// pending-callback map, handler dispatch — and the paper's accounting:
// issue overhead and service time accrue to CatComm, every request and
// response counts as one message (§3.2).

package transport

import (
	"fmt"
	"sort"
	"time"

	"gnbody/internal/rt"
	"gnbody/internal/trace"
)

// Msg is one RPC message: a request carrying a payload to a serving rank,
// or the response carrying the handler's answer back.
type Msg struct {
	Req  bool // request (true) or response (false)
	From int  // issuing/serving rank
	Seq  uint32
	Val  []byte
}

// EngineConfig wires an Engine into its host runtime.
type EngineConfig struct {
	// Rank is the hosting rank's id.
	Rank int
	// Send moves one message toward dst over the host's conduit (dist:
	// Transport frames). Send must take its own snapshot of m.Val before it
	// returns or services any inbound work (dist's transports copy or
	// serialise it): a Serve handler may rebuild its next response in the
	// buffer it returned the last one in. Send may service inbound work
	// while it waits, but must not deliver the message being sent back into
	// Deliver re-entrantly.
	Send func(dst int, m Msg)
	// Metrics receives the engine's accounting (same rank-owned
	// single-writer discipline as the rest of rt.Metrics).
	Metrics *rt.Metrics
	// Tracer is the rank's event buffer; nil disables tracing.
	Tracer *trace.Buf
	// Nested, if set, is told the wall time spent inside request service,
	// so the host's wait loops can subtract already-attributed time.
	Nested func(d time.Duration)
}

// pendingCall is one issued request awaiting its response: the callback to
// run and the rank serving it (drain diagnostics name the missing owners).
type pendingCall struct {
	cb    func(resp []byte)
	owner int
}

// Engine is one rank's RPC state machine. All methods must be called from
// the owning rank's goroutine (the same discipline as rt.Runtime).
type Engine struct {
	cfg     EngineConfig
	handler func(req []byte) []byte
	pending map[uint32]pendingCall
	pendT0  map[uint32]int64 // per-RPC issue stamps, allocated only when tracing
	nextSeq uint32
}

// NewEngine builds an engine for one rank.
func NewEngine(cfg EngineConfig) *Engine {
	e := &Engine{cfg: cfg, pending: make(map[uint32]pendingCall)}
	if cfg.Tracer != nil {
		e.pendT0 = make(map[uint32]int64)
	}
	return e
}

// Serve registers the handler answering inbound requests. The handler must
// not retain req past its return; the response it returns is snapshotted by
// Send before the handler can run again, so it may reuse one buffer.
func (e *Engine) Serve(handler func(req []byte) []byte) { e.handler = handler }

// Call issues a request to owner; cb runs on this rank when the response
// is delivered through a later Deliver. cb must not retain resp past its
// return: the host may recycle the buffer once Deliver returns.
func (e *Engine) Call(owner int, req []byte, cb func(resp []byte)) {
	if cb == nil {
		panic("transport: AsyncCall requires a callback")
	}
	seq := e.nextSeq
	e.nextSeq++
	e.pending[seq] = pendingCall{cb: cb, owner: owner}
	m := e.cfg.Metrics
	m.RPCsSent++
	m.Msgs++
	m.BytesSent += int64(len(req))
	if e.cfg.Tracer != nil {
		e.pendT0[seq] = e.cfg.Tracer.Now()
		e.cfg.Tracer.Outstanding(len(e.pending))
	}
	e.cfg.Send(owner, Msg{Req: true, From: e.cfg.Rank, Seq: seq, Val: req})
}

// Deliver consumes one inbound message: requests run the registered
// handler (service time accrues to CatComm) and send the response back;
// responses run their pending callback. Neither keeps a reference to m.Val
// once Deliver returns, so the host may then recycle it. Protocol
// violations — a request arriving before Serve, a response for an unknown
// seq — are returned as errors: over a wire fabric they mean a corrupt or
// misbehaving link, a per-rank failure, not grounds to kill the process.
func (e *Engine) Deliver(m Msg) error {
	met := e.cfg.Metrics
	switch {
	case m.Req:
		if e.handler == nil {
			return fmt.Errorf("transport: rank %d received request from rank %d before Serve", e.cfg.Rank, m.From)
		}
		tEnter := e.cfg.Tracer.Now()
		t0 := time.Now()
		resp := e.handler(m.Val)
		d := time.Since(t0)
		met.Time[rt.CatComm] += d // serving lookups is communication work
		if e.cfg.Nested != nil {
			e.cfg.Nested(d)
		}
		met.RPCserved++
		met.BytesSent += int64(len(resp))
		met.Msgs++
		e.cfg.Tracer.Span(trace.KindServe, tEnter, int64(len(resp)))
		e.cfg.Send(m.From, Msg{Req: false, From: e.cfg.Rank, Seq: m.Seq, Val: resp})
	default:
		p, ok := e.pending[m.Seq]
		if !ok {
			return fmt.Errorf("transport: rank %d got response from rank %d for unknown seq %d", e.cfg.Rank, m.From, m.Seq)
		}
		delete(e.pending, m.Seq)
		met.BytesRecv += int64(len(m.Val))
		if e.cfg.Tracer != nil {
			e.cfg.Tracer.Span(trace.KindRPC, e.pendT0[m.Seq], int64(len(m.Val)))
			delete(e.pendT0, m.Seq)
		}
		p.cb(m.Val)
	}
	return nil
}

// Outstanding reports issued requests whose callbacks have not yet run.
func (e *Engine) Outstanding() int { return len(e.pending) }

// PendingOwners returns the distinct ranks being waited on for responses,
// in ascending order — the peers a stuck Drain is missing.
func (e *Engine) PendingOwners() []int {
	if len(e.pending) == 0 {
		return nil
	}
	seen := make(map[int]bool, 4)
	var out []int
	for _, p := range e.pending {
		if !seen[p.owner] {
			seen[p.owner] = true
			out = append(out, p.owner)
		}
	}
	sort.Ints(out)
	return out
}
