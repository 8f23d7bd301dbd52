// Package trace is the structured runtime-event layer behind the paper's
// accounting claims: both back-ends feed it — the real runtime (package
// par) stamps wall-clock events, the simulator (package sim) stamps
// virtual-clock events — so a BSP-vs-Async run can be *seen*, not just
// summed. Events record spans for supersteps, alltoallv exchanges, RPC
// issue/complete, barrier and split-phase-barrier waits, and alignment
// batches.
//
// Design constraints, in order:
//
//  1. Disabled tracing must cost one nil check. Every method on *Buf and
//     *Tracer is a no-op on a nil receiver, so call sites need no guards
//     and the drivers' hot paths are unaffected when no tracer is
//     configured (bench_test.go numbers must not move).
//  2. No locks on the hot path. Each rank owns one Buf — a fixed-capacity
//     ring written only by that rank's goroutine (the same ownership
//     discipline as rt.Metrics). The ring overwrites its oldest entries
//     (flight-recorder semantics) and counts what it dropped.
//  3. Back-end-agnostic timestamps. A Buf stamps events with its clock
//     function: wall time since tracer creation under par, the rank's
//     virtual clock under sim. Exporters never look at a real clock.
//
// Exporters: WriteChromeTrace emits Chrome trace_event JSON (one lane per
// rank, category-colored, loadable in chrome://tracing or Perfetto);
// WriteMetricsCSV / WriteMetricsJSON emit the flat per-rank accounting
// (category times, message counts/bytes, outstanding-RPC and memory
// high-water marks, imbalance).
package trace

import "time"

// Kind identifies what a span covers. Kinds map onto the paper's runtime
// breakdown: compute kinds (align, overhead) versus coordination kinds
// (exchange, RPC, barriers).
type Kind uint8

const (
	// KindSuperstep spans one BSP exchange round (§3.1); Arg is the
	// number of remote reads fetched in the round.
	KindSuperstep Kind = iota
	// KindExchange spans one Alltoallv collective; Arg is bytes received.
	KindExchange
	// KindRPC spans one AsyncCall from issue to callback completion on
	// the issuing rank; Arg is response payload bytes.
	KindRPC
	// KindServe spans servicing one inbound RPC request; Arg is response
	// payload bytes.
	KindServe
	// KindBarrier spans a Barrier from entry to release.
	KindBarrier
	// KindSplitBarrier spans the phase-two wait of a split-phase barrier
	// (the overlap window between entry and wait is other kinds' spans).
	KindSplitBarrier
	// KindDrain spans a Drain wait — unhidden communication latency;
	// Arg is the outstanding-request target.
	KindDrain
	// KindAlign spans alignment compute charged to rt.CatAlign.
	KindAlign
	// KindOverhead spans data-structure traversal charged to
	// rt.CatOverhead.
	KindOverhead
	// KindBatch spans the alignment batch run by one async fetch
	// callback (§3.2); Arg is the number of tasks in the batch.
	KindBatch

	NumKinds
)

// String names the kind as used in exported traces.
func (k Kind) String() string {
	switch k {
	case KindSuperstep:
		return "superstep"
	case KindExchange:
		return "alltoallv"
	case KindRPC:
		return "rpc"
	case KindServe:
		return "rpc-serve"
	case KindBarrier:
		return "barrier"
	case KindSplitBarrier:
		return "split-barrier"
	case KindDrain:
		return "drain"
	case KindAlign:
		return "align"
	case KindOverhead:
		return "overhead"
	case KindBatch:
		return "align-batch"
	}
	return "unknown"
}

// Category returns the breakdown category the kind belongs to, matching
// the figure legends: compute kinds map to alignment/overhead, waiting
// kinds to synchronization, transfer kinds to communication.
func (k Kind) Category() string {
	switch k {
	case KindAlign, KindBatch:
		return "align"
	case KindOverhead, KindSuperstep:
		return "overhead"
	case KindExchange, KindRPC, KindServe, KindDrain:
		return "comm"
	case KindBarrier, KindSplitBarrier:
		return "sync"
	}
	return "other"
}

// Event is one recorded span. Start and End are nanoseconds on the
// recording back-end's clock (wall under par, virtual under sim);
// instantaneous events have Start == End.
type Event struct {
	Kind  Kind
	Start int64
	End   int64
	Arg   int64
}

// Config parameterises a Tracer.
type Config struct {
	// BufCap is the per-rank ring capacity in events (default 1 << 15).
	// When full, the oldest events are overwritten and counted as
	// dropped: the exported timeline keeps the most recent window.
	BufCap int
	// Sample records every Sample-th event per (rank, kind) for the
	// high-volume compute kinds (KindAlign, KindOverhead, KindRPC,
	// KindServe, KindBatch); coordination kinds are always recorded.
	// Default 1 (record everything).
	Sample int
}

func (c Config) withDefaults() Config {
	if c.BufCap <= 0 {
		c.BufCap = 1 << 15
	}
	if c.Sample <= 0 {
		c.Sample = 1
	}
	return c
}

// sampled reports whether k is subject to the sampling rate.
func sampled(k Kind) bool {
	switch k {
	case KindAlign, KindOverhead, KindRPC, KindServe, KindBatch:
		return true
	}
	return false
}

// Tracer owns one Buf per rank. A nil *Tracer is a valid disabled tracer:
// Rank returns nil and every downstream call no-ops.
type Tracer struct {
	cfg   Config
	epoch time.Time
	bufs  []*Buf
}

// New builds a tracer for the given rank count. The default clock stamps
// wall time since creation; simulated back-ends override it per rank with
// Buf.SetClock.
func New(ranks int, cfg Config) *Tracer {
	cfg = cfg.withDefaults()
	t := &Tracer{cfg: cfg, epoch: time.Now()}
	t.bufs = make([]*Buf, ranks)
	for i := range t.bufs {
		b := &Buf{rank: i, sample: cfg.Sample, ring: make([]Event, cfg.BufCap)}
		epoch := t.epoch
		b.now = func() int64 { return int64(time.Since(epoch)) }
		t.bufs[i] = b
	}
	return t
}

// Ranks returns the number of per-rank buffers (0 for a nil tracer).
func (t *Tracer) Ranks() int {
	if t == nil {
		return 0
	}
	return len(t.bufs)
}

// Rank returns rank i's buffer, or nil when the tracer is nil or i is out
// of range — so back-ends can hand the result straight to their ranks.
func (t *Tracer) Rank(i int) *Buf {
	if t == nil || i < 0 || i >= len(t.bufs) {
		return nil
	}
	return t.bufs[i]
}

// Buf is one rank's event ring. All writes come from the owning rank's
// goroutine; read it only after the SPMD program finishes.
type Buf struct {
	rank   int
	now    func() int64
	sample int
	count  [NumKinds]int64 // events offered per kind (pre-sampling)
	ring   []Event
	head   int   // next write slot
	n      int64 // total events written
	rpcHW  int   // outstanding-RPC high-water mark
}

// SetClock replaces the buffer's timestamp source (the simulator installs
// its per-rank virtual clock).
func (b *Buf) SetClock(now func() int64) {
	if b == nil {
		return
	}
	b.now = now
}

// Now returns the current timestamp on this buffer's clock (0 for nil:
// the paired Event call will no-op anyway).
func (b *Buf) Now() int64 {
	if b == nil {
		return 0
	}
	return b.now()
}

// Event records a span. Nil-safe; the nil check is the entire disabled
// cost. Sampled kinds are thinned to every sample-th occurrence.
func (b *Buf) Event(k Kind, start, end, arg int64) {
	if b == nil {
		return
	}
	b.count[k]++
	if b.sample > 1 && sampled(k) && b.count[k]%int64(b.sample) != 0 {
		return
	}
	b.ring[b.head] = Event{Kind: k, Start: start, End: end, Arg: arg}
	b.head++
	if b.head == len(b.ring) {
		b.head = 0
	}
	b.n++
}

// Span records a span ending now (the common call shape: t0 := b.Now();
// ...; b.Span(kind, t0, arg)).
func (b *Buf) Span(k Kind, start, arg int64) {
	if b == nil {
		return
	}
	b.Event(k, start, b.now(), arg)
}

// Outstanding updates the outstanding-RPC high-water mark.
func (b *Buf) Outstanding(n int) {
	if b == nil {
		return
	}
	if n > b.rpcHW {
		b.rpcHW = n
	}
}

// RPCHighWater returns the recorded outstanding-RPC peak.
func (b *Buf) RPCHighWater() int {
	if b == nil {
		return 0
	}
	return b.rpcHW
}

// Len returns the number of events currently held (≤ capacity).
func (b *Buf) Len() int {
	if b == nil {
		return 0
	}
	if b.n < int64(len(b.ring)) {
		return int(b.n)
	}
	return len(b.ring)
}

// Dropped returns how many recorded events the ring has overwritten.
func (b *Buf) Dropped() int64 {
	if b == nil {
		return 0
	}
	if d := b.n - int64(len(b.ring)); d > 0 {
		return d
	}
	return 0
}

// Events appends the held events in recording order to dst and returns
// it. For a wrapped ring this is the most recent window.
func (b *Buf) Events(dst []Event) []Event {
	if b == nil {
		return dst
	}
	if b.n >= int64(len(b.ring)) { // wrapped: oldest survivor is at head
		dst = append(dst, b.ring[b.head:]...)
		return append(dst, b.ring[:b.head]...)
	}
	return append(dst, b.ring[:b.head]...)
}
