// Package par is the real parallel back-end of the rt.Runtime interface:
// ranks are goroutines in one address space, collectives are implemented
// with sense-reversing barriers over shared staging buffers, and RPC
// messages move through per-rank inboxes serviced by application-level
// polling — the same progress discipline as the paper's UPC++
// implementation (§3.2). The RPC state machine itself (seq allocation,
// pending callbacks, handler dispatch, accounting) is the shared
// transport.Engine, the same engine the distributed backend (package dist)
// runs over sockets.
//
// Buffer ownership: Alltoallv receive slices are copied on delivery, so a
// receiver may freely mutate or retain what it was handed while the sender
// reuses its staging buffers. RPC payloads are copied as they are sent: a
// buffer passed to AsyncCall, or returned from a Serve handler, is the
// sender's again as soon as the message is queued.
//
// Times are wall-clock. This back-end produces the genuine intranode
// results (paper §4.1) and runs the production pipeline in cmd/dibella;
// multinode projection is package sim's job, and true multi-process
// execution is package dist's.
package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gnbody/internal/rt"
	"gnbody/internal/trace"
	"gnbody/internal/transport"
)

// Config parameterises a World.
type Config struct {
	P         int           // number of ranks
	MemBudget int64         // per-rank exchange-memory budget; <=0 unlimited
	InboxSize int           // RPC inbox capacity (default 4096)
	Tracer    *trace.Tracer // structured-event layer; nil disables tracing
}

// World owns the shared state of one SPMD execution.
type World struct {
	cfg   Config
	ranks []*Rank

	barCount atomic.Int32
	barGen   atomic.Uint32

	splitCount atomic.Int32
	splitGen   atomic.Uint32

	stage   [][][]byte // stage[src][dst]: alltoallv staging
	redVals []int64    // allreduce staging
	redOut  []int64
}

// NewWorld builds a world with P ranks.
func NewWorld(cfg Config) (*World, error) {
	if cfg.P <= 0 {
		return nil, fmt.Errorf("par: P=%d must be positive", cfg.P)
	}
	if cfg.InboxSize <= 0 {
		cfg.InboxSize = 4096
	}
	w := &World{
		cfg:     cfg,
		stage:   make([][][]byte, cfg.P),
		redVals: make([]int64, cfg.P),
		redOut:  make([]int64, cfg.P),
	}
	w.ranks = make([]*Rank, cfg.P)
	for i := 0; i < cfg.P; i++ {
		r := &Rank{
			id:    i,
			w:     w,
			inbox: make(chan transport.Msg, cfg.InboxSize),
			tr:    cfg.Tracer.Rank(i),
		}
		r.eng = transport.NewEngine(transport.EngineConfig{
			Rank:    i,
			Send:    r.send,
			Metrics: &r.met,
			Tracer:  r.tr,
			Nested:  func(d time.Duration) { r.nestedWall += d },
		})
		w.ranks[i] = r
	}
	return w, nil
}

// Run executes f as rank body on every rank concurrently and blocks until
// all ranks return. It may be called repeatedly on the same world; metrics
// accumulate across Runs unless ResetMetrics is called in between.
//
// The error is always nil: goroutine ranks in one address space cannot
// lose each other. The signature matches dist.World.Run, where ranks are
// processes over a fallible fabric, so launchers drive both backends
// through one shape.
func (w *World) Run(f func(r rt.Runtime)) error {
	var wg sync.WaitGroup
	for _, r := range w.ranks {
		wg.Add(1)
		go func(r *Rank) {
			defer wg.Done()
			t0 := time.Now()
			f(r)
			r.met.Elapsed += time.Since(t0)
		}(r)
	}
	wg.Wait()
	return nil
}

// Metrics returns the accounting for rank i. Call only between Runs.
func (w *World) Metrics(i int) *rt.Metrics { return &w.ranks[i].met }

// ResetMetrics zeroes every rank's accounting (category times, Elapsed,
// byte/message counters, memory marks) so the next Run is measured in
// isolation. By default metrics accumulate across repeated Runs on the
// same world; call this between a setup phase and the phase you want to
// report. Call only between Runs.
func (w *World) ResetMetrics() {
	for _, r := range w.ranks {
		r.met = rt.Metrics{}
		r.nestedWall = 0
	}
}

// Rank is the per-goroutine runtime handle. All fields except inbox are
// touched only by the owning goroutine.
type Rank struct {
	id    int
	w     *World
	inbox chan transport.Msg
	eng   *transport.Engine
	met   rt.Metrics

	// tr is this rank's trace buffer (nil when tracing is disabled).
	tr *trace.Buf

	// nestedWall accumulates wall time attributed through Timed and
	// service work, so wait loops can subtract it from their own
	// category (no double counting).
	nestedWall time.Duration
}

var _ rt.Runtime = (*Rank)(nil)

// Rank returns the rank id.
func (r *Rank) Rank() int { return r.id }

// Size returns the number of ranks.
func (r *Rank) Size() int { return r.w.cfg.P }

// waitLoop polls Progress until cond holds, attributing the unserviced
// waiting time to cat.
func (r *Rank) waitLoop(cat rt.Category, cond func() bool) {
	t0 := time.Now()
	n0 := r.nestedWall
	for !cond() {
		if !r.Progress() {
			runtime.Gosched()
		}
	}
	if d := time.Since(t0) - (r.nestedWall - n0); d > 0 {
		r.met.Time[cat] += d
		r.nestedWall += d
	}
}

// Barrier blocks until all ranks arrive, servicing RPCs while waiting.
func (r *Rank) Barrier() {
	w := r.w
	t0 := r.tr.Now()
	g := w.barGen.Load()
	if int(w.barCount.Add(1)) == w.cfg.P {
		w.barCount.Store(0)
		w.barGen.Add(1)
		r.tr.Span(trace.KindBarrier, t0, 0)
		return
	}
	r.waitLoop(rt.CatSync, func() bool { return w.barGen.Load() != g })
	r.tr.Span(trace.KindBarrier, t0, 0)
}

// SplitBarrier enters phase one and returns the phase-two wait.
func (r *Rank) SplitBarrier() (wait func()) {
	w := r.w
	g := w.splitGen.Load()
	last := int(w.splitCount.Add(1)) == w.cfg.P
	if last {
		w.splitCount.Store(0)
		w.splitGen.Add(1)
	}
	return func() {
		t0 := r.tr.Now()
		if !last {
			r.waitLoop(rt.CatSync, func() bool { return w.splitGen.Load() != g })
		}
		r.tr.Span(trace.KindSplitBarrier, t0, 0)
	}
}

// Alltoallv exchanges byte messages with every rank via shared staging.
// Receive slices are copies: the receiver owns them outright, and the
// sender's staged buffers are untouched and reusable after the collective
// returns.
func (r *Rank) Alltoallv(send [][]byte) [][]byte {
	w := r.w
	if len(send) != w.cfg.P {
		panic(fmt.Sprintf("par: Alltoallv send has %d entries, want %d", len(send), w.cfg.P))
	}
	tEnter := r.tr.Now()
	for _, m := range send {
		r.met.BytesSent += int64(len(m))
		r.met.IntraBytes += int64(len(m)) // shared memory: all intra-node
		if len(m) > 0 {
			r.met.Msgs++
		}
	}
	w.stage[r.id] = send
	r.Barrier() // all sends staged
	t0 := time.Now()
	recv := make([][]byte, w.cfg.P)
	for src := 0; src < w.cfg.P; src++ {
		m := w.stage[src][r.id]
		if len(m) > 0 { // copy on delivery; nil stays nil
			cp := make([]byte, len(m))
			copy(cp, m)
			m = cp
		}
		recv[src] = m
		r.met.BytesRecv += int64(len(m))
	}
	d := time.Since(t0)
	r.met.Time[rt.CatComm] += d
	r.nestedWall += d
	r.Barrier() // staging may be reused afterwards
	if r.tr != nil {
		var rb int64
		for _, m := range recv {
			rb += int64(len(m))
		}
		r.tr.Span(trace.KindExchange, tEnter, rb)
	}
	return recv
}

// Allreduce combines v across ranks.
func (r *Rank) Allreduce(v int64, op rt.Op) int64 {
	w := r.w
	w.redVals[r.id] = v
	r.Barrier()
	acc := w.redVals[0]
	for i := 1; i < w.cfg.P; i++ {
		acc = op.Combine(acc, w.redVals[i])
	}
	w.redOut[r.id] = acc
	r.Barrier()
	return w.redOut[r.id]
}

// Serve registers the RPC handler for this rank.
func (r *Rank) Serve(handler func([]byte) []byte) { r.eng.Serve(handler) }

// AsyncCall issues a request to owner; cb runs during later progress.
func (r *Rank) AsyncCall(owner int, req []byte, cb func([]byte)) {
	r.eng.Call(owner, req, cb)
}

// send delivers msg to dst's inbox, servicing our own inbox if dst's is
// full (prevents mutual-full deadlock). The payload is copied first — the
// channel would otherwise move it between rank goroutines by reference,
// and servicing the inbox below can run this rank's handler again, which
// may rebuild its response in the very buffer being sent. Goroutine ranks
// share one address space, so every byte moved is intra-node by definition.
func (r *Rank) send(dst int, msg transport.Msg) {
	r.met.IntraBytes += int64(len(msg.Val))
	if len(msg.Val) > 0 {
		msg.Val = append([]byte(nil), msg.Val...)
	}
	in := r.w.ranks[dst].inbox
	for {
		select {
		case in <- msg:
			return
		default:
			if !r.Progress() {
				runtime.Gosched()
			}
		}
	}
}

// Progress drains this rank's inbox through the shared RPC engine:
// requests are answered through the registered handler; responses run
// their callbacks. Returns whether any message was handled.
func (r *Rank) Progress() bool {
	did := false
	for {
		select {
		case m := <-r.inbox:
			did = true
			if err := r.eng.Deliver(m); err != nil {
				// In-process channel delivery cannot corrupt a message; a
				// protocol violation here is a bug, not a link fault.
				panic(fmt.Sprintf("par: %v", err))
			}
		default:
			return did
		}
	}
}

// Outstanding reports issued requests whose callbacks have not run.
func (r *Rank) Outstanding() int { return r.eng.Outstanding() }

// Drain blocks until Outstanding() <= max; visible time is unhidden
// communication latency.
func (r *Rank) Drain(max int) {
	t0 := r.tr.Now()
	r.waitLoop(rt.CatComm, func() bool { return r.eng.Outstanding() <= max })
	r.tr.Span(trace.KindDrain, t0, int64(max))
}

// Charge accumulates modeled time without sleeping (real back-end).
func (r *Rank) Charge(cat rt.Category, d time.Duration) { r.met.Time[cat] += d }

// Timed measures f's wall time into cat. Do not nest Timed calls.
func (r *Rank) Timed(cat rt.Category, f func()) {
	tEnter := r.tr.Now()
	t0 := time.Now()
	f()
	d := time.Since(t0)
	r.met.Time[cat] += d
	r.nestedWall += d
	rt.TraceCompute(r.tr, cat, tEnter, tEnter+int64(d))
}

// Alloc tracks n live bytes.
func (r *Rank) Alloc(n int64) { r.met.Alloc(n) }

// Free releases n tracked bytes.
func (r *Rank) Free(n int64) { r.met.Free(n) }

// MemBudget returns the configured per-rank exchange budget.
func (r *Rank) MemBudget() int64 { return r.w.cfg.MemBudget }

// Metrics exposes this rank's accounting.
func (r *Rank) Metrics() *rt.Metrics { return &r.met }

// Tracer returns this rank's trace buffer (nil when tracing is disabled).
func (r *Rank) Tracer() *trace.Buf { return r.tr }
