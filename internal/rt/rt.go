// Package rt defines the SPMD runtime interface that both parallel
// back-ends implement: the real message-passing runtime (package dist),
// where ranks are processes over TCP or goroutines over an in-process
// loopback fabric (package par builds the latter) and times are
// wall-clock, and the performance simulator (package sim), where ranks run
// under a conservative discrete-event scheduler against a LogGP-style cost
// model.
//
// The paper's two coordination strategies — bulk-synchronous with
// aggregated irregular all-to-alls, and asynchronous with pull RPCs — are
// written once (package core) against this interface, so the algorithms
// measured at laptop scale and the algorithms projected to 32K simulated
// cores are literally the same code.
package rt

import (
	"time"

	"gnbody/internal/trace"
)

// Category labels where a rank's time goes, matching the runtime-breakdown
// series of Figures 3, 4, 8, 9, 10.
type Category int

const (
	// CatAlign is time computing seed-and-extend pairwise alignments
	// ("Computation (Alignment)") — dominant across all experiments.
	CatAlign Category = iota
	// CatOverhead is data-structure traversal, kernel invocation overhead,
	// and message packing ("Computation (Overhead)").
	CatOverhead
	// CatComm is visible (unhidden) communication latency.
	CatComm
	// CatSync is barrier and collective waiting time, dominated by
	// computation load imbalance (§4.2).
	CatSync

	NumCategories
)

// String names the category as in the paper's figure legends.
func (c Category) String() string {
	switch c {
	case CatAlign:
		return "Computation (Alignment)"
	case CatOverhead:
		return "Computation (Overhead)"
	case CatComm:
		return "Communication"
	case CatSync:
		return "Synchronization"
	}
	return "Unknown"
}

// Op selects the combining operator for Allreduce.
type Op int

const (
	OpSum Op = iota
	OpMin
	OpMax
)

// Combine applies the operator.
func (op Op) Combine(a, b int64) int64 {
	switch op {
	case OpMin:
		if b < a {
			return b
		}
		return a
	case OpMax:
		if b > a {
			return b
		}
		return a
	default:
		return a + b
	}
}

// Metrics accumulates one rank's accounting. All fields are owned by the
// rank's goroutine; read them only after the SPMD program finishes.
type Metrics struct {
	Time       [NumCategories]time.Duration
	Elapsed    time.Duration // total program time for this rank
	CurMem     int64         // live tracked bytes
	MaxMem     int64         // high-water mark (Figures 11-12)
	BytesSent  int64
	BytesRecv  int64
	Msgs       int64 // point-to-point and RPC messages sent
	RPCsSent   int64
	RPCserved  int64
	Supersteps int64 // BSP exchange rounds executed

	// Residency accounting (DESIGN.md §10). StoreBytes is the rank's
	// resident read-store footprint (Store.LocalBytes); PeakExchange the
	// largest superstep exchange (request + payload + receive buffers) the
	// BSP driver held at once; PeakRPCBytes the async driver's high-water
	// estimate of in-flight pull-RPC response bytes; OOPGets counts
	// out-of-partition Store.Gets observed by a counting store — zero in a
	// correct owner-only run.
	StoreBytes   int64
	PeakExchange int64
	PeakRPCBytes int64
	OOPGets      int64

	// Remote-read cache accounting (DESIGN.md §13). Hits/misses count
	// fetch decisions (one per remote read a driver is about to pull);
	// evicts count entries dropped by the LRU bound; CachePinnedPeak is the
	// high-water mark of bytes pinned by in-flight tasks.
	CacheHits       int64
	CacheMisses     int64
	CacheEvicts     int64
	CachePinnedPeak int64

	// Per-tier wire bytes: IntraBytes crossed only cheap intra-node links,
	// InterBytes crossed a node boundary. Backends classify the frames they
	// actually send, headers included, by destination node (dist: whole
	// frames, so an in-process par world, one node, counts every frame
	// intra and a rank's rows to itself not at all; sim: modeled frames
	// under the two-tier LogGP machine). Unlike BytesSent these include
	// coordination framing, because the tier split is about what the
	// network carries.
	IntraBytes int64
	InterBytes int64

	// Graph-round fetch accounting (DESIGN.md §13). GraphFetches counts
	// the distinct remote records this rank pulled over the wire in the
	// assembly stages' request/response rounds — adjacency lists in
	// Reduce's neighbour fetch, base suffixes in Contigs' suffix round;
	// GraphCoalesced counts the remote lookups that needed no record of
	// their own because the round's dedup had already asked for it.
	// Contigs' replicated link table is bulk data (BytesSent), not lookups.
	GraphFetches   int64
	GraphCoalesced int64

	// Alignment-kernel accounting (DESIGN.md §12). The names date from a
	// packed int16 kernel that no longer exists; the benchmark module
	// compiles against them, so the rename waits for a benchmark PR.
	// SWARTasks counts alignment tasks whose extensions all ran on the
	// int32 row kernel, FallbackTasks tasks where at least one reached the
	// int reference. LaneCells and LaneSlots both hold the DP cells the row
	// kernel swept, so their ratio (lane_occupancy) reads 1.
	SWARTasks     int64
	FallbackTasks int64
	LaneCells     int64
	LaneSlots     int64
}

// Snapshot returns a value copy of the rank's accounting, taken so a later
// Sub can scope a single job's activity out of a world whose metrics
// accumulate across Runs. Call it only when the rank is quiescent (between
// Runs on the world that owns m) — the fields are owned by the rank's
// goroutine while a Run is in flight.
func (m *Metrics) Snapshot() Metrics { return *m }

// Sub returns the job-scoped delta between two snapshots of the same
// rank's accounting: cur taken after the job, prev before it. Monotonic
// counters (category times, Elapsed, byte/message/RPC counts, Supersteps,
// cache and tier counters, OOPGets) subtract; CurMem becomes the job's net
// live-byte delta. Gauges and high-water marks (MaxMem, StoreBytes,
// PeakExchange, PeakRPCBytes, CachePinnedPeak) are carried from cur
// unchanged — a per-job watermark is not recoverable from cumulative
// accounting, so those fields read as world-lifetime values.
//
// This is how a resident multi-tenant world reports per-job metrics
// without the global ResetMetrics, which cannot be used once jobs share a
// world: resetting between jobs destroys every other job's baseline.
func Sub(cur, prev Metrics) Metrics {
	d := cur
	for c := range d.Time {
		d.Time[c] -= prev.Time[c]
	}
	d.Elapsed -= prev.Elapsed
	d.CurMem -= prev.CurMem
	d.BytesSent -= prev.BytesSent
	d.BytesRecv -= prev.BytesRecv
	d.Msgs -= prev.Msgs
	d.RPCsSent -= prev.RPCsSent
	d.RPCserved -= prev.RPCserved
	d.Supersteps -= prev.Supersteps
	d.OOPGets -= prev.OOPGets
	d.CacheHits -= prev.CacheHits
	d.CacheMisses -= prev.CacheMisses
	d.CacheEvicts -= prev.CacheEvicts
	d.IntraBytes -= prev.IntraBytes
	d.InterBytes -= prev.InterBytes
	d.GraphFetches -= prev.GraphFetches
	d.GraphCoalesced -= prev.GraphCoalesced
	d.SWARTasks -= prev.SWARTasks
	d.FallbackTasks -= prev.FallbackTasks
	d.LaneCells -= prev.LaneCells
	d.LaneSlots -= prev.LaneSlots
	return d
}

// Alloc records n live bytes (message buffers, retained remote reads).
func (m *Metrics) Alloc(n int64) {
	m.CurMem += n
	if m.CurMem > m.MaxMem {
		m.MaxMem = m.CurMem
	}
}

// Free releases n tracked bytes.
func (m *Metrics) Free(n int64) {
	m.CurMem -= n
	if m.CurMem < 0 {
		panic("rt: memory accounting underflow")
	}
}

// Runtime is the per-rank SPMD execution context.
//
// Progress contract: AsyncCall callbacks and inbound request service run
// only inside Progress, Barrier, SplitBarrier waits, or Drain — never
// concurrently with user code on the same rank (application-level polling,
// exactly as the paper's UPC++ implementation requires, §3.2).
type Runtime interface {
	// Rank returns this rank's id in [0, Size()).
	Rank() int
	// Size returns the number of ranks.
	Size() int

	// Barrier blocks until all ranks arrive. While blocked, this rank
	// continues to service inbound RPC requests (needed by the async
	// driver's single exit barrier: partitioned reads must stay available
	// until all tasks complete). Waiting time accrues to CatSync.
	Barrier()

	// SplitBarrier enters phase one of a split-phase barrier and returns
	// the phase-two wait. Work performed between the two phases overlaps
	// other ranks' arrival (the async driver computes local-local tasks
	// there). wait() services RPCs while blocked; accrues CatSync.
	SplitBarrier() (wait func())

	// Alltoallv sends send[r] to rank r and returns recv where recv[r] is
	// the message from rank r. Collective. nil entries mean empty.
	// The irregular all-to-all of the BSP driver. Accrues CatComm for the
	// transfer and CatSync for arrival skew.
	Alltoallv(send [][]byte) [][]byte

	// Allreduce combines v across all ranks. Collective; accrues CatSync.
	Allreduce(v int64, op Op) int64

	// Serve registers the handler answering AsyncCall requests directed at
	// this rank. Must be registered (and a barrier crossed) before peers
	// may call in — the async driver's split-phase barrier provides
	// exactly that synchronisation. The handler runs during this rank's
	// polling; it must not block, and it must not retain the request bytes
	// past its return — the runtime may recycle the request buffer for a
	// later delivery. The response it returns is snapshotted by the
	// runtime before the handler can run again, so a handler may build
	// every response in one buffer it keeps.
	Serve(handler func(req []byte) []byte)

	// AsyncCall sends req to owner's handler; cb receives the response on
	// this rank during a later Progress/Barrier. The injection overhead
	// accrues to CatComm; round-trip latency is hidden unless the rank
	// runs dry. Single-read lookups and batched fetches both ride this
	// one primitive. cb must not retain resp past
	// its return — the runtime may recycle the response buffer for a later
	// delivery; a callback that needs the bytes afterwards copies or
	// decodes them first. req must stay untouched until cb runs.
	AsyncCall(owner int, req []byte, cb func(resp []byte))

	// Progress services inbound requests and runs ready callbacks,
	// returning whether any work was done.
	Progress() bool

	// Outstanding reports issued AsyncCalls whose callbacks have not run.
	Outstanding() int

	// Drain blocks until Outstanding() reaches max, servicing inbound
	// requests meanwhile; the visible waiting accrues to CatComm (it is
	// unhidden communication latency, not synchronisation).
	Drain(max int)

	// Charge adds modeled compute time: the simulator advances the
	// virtual clock; the real runtime only accumulates it for reporting.
	Charge(cat Category, d time.Duration)

	// Timed runs f, attributing its wall-clock time to cat in the real
	// runtime. The simulator executes f but attributes nothing — model
	// back-ends must Charge explicitly.
	Timed(cat Category, f func())

	// Alloc and Free track the memory the driver holds for exchange
	// buffers and retained remote reads (Figures 11-12).
	Alloc(n int64)
	Free(n int64)

	// MemBudget is the per-rank exchange-memory budget in bytes; the BSP
	// driver sizes its supersteps against it. <= 0 means unlimited.
	MemBudget() int64

	// Metrics exposes this rank's accounting.
	Metrics() *Metrics

	// Tracer returns this rank's structured-event buffer, or nil when
	// tracing is disabled. All trace.Buf methods no-op on nil, so drivers
	// emit spans unconditionally; the disabled cost is one nil check.
	Tracer() *trace.Buf
}

// traceKind maps a breakdown category onto the trace span kind that
// Charge/Timed emit.
func traceKind(c Category) trace.Kind {
	if c == CatAlign {
		return trace.KindAlign
	}
	return trace.KindOverhead
}

// TraceCompute emits the compute span for a Charge/Timed attribution:
// CatAlign and CatOverhead become timeline spans (communication and
// synchronization spans are emitted by the primitives themselves, with
// their own kinds). Nil-safe.
func TraceCompute(b *trace.Buf, c Category, start, end int64) {
	if b == nil || (c != CatAlign && c != CatOverhead) {
		return
	}
	b.Event(traceKind(c), start, end, 0)
}

// TraceRow flattens one rank's accounting into the metrics-export row.
// b may be nil (no tracer): the trace-derived fields stay zero.
func TraceRow(rank int, m *Metrics, b *trace.Buf) trace.RankMetrics {
	return trace.RankMetrics{
		Rank:        rank,
		AlignSec:    m.Time[CatAlign].Seconds(),
		OverheadSec: m.Time[CatOverhead].Seconds(),
		CommSec:     m.Time[CatComm].Seconds(),
		SyncSec:     m.Time[CatSync].Seconds(),
		ElapsedSec:  m.Elapsed.Seconds(),
		BytesSent:   m.BytesSent,
		BytesRecv:   m.BytesRecv,
		Msgs:        m.Msgs,
		RPCsSent:    m.RPCsSent,
		RPCsServed:  m.RPCserved,
		Supersteps:  m.Supersteps,
		MaxMem:      m.MaxMem,
		StoreBytes:  m.StoreBytes,
		PeakExch:    m.PeakExchange,
		PeakRPC:     m.PeakRPCBytes,
		OOPGets:     m.OOPGets,
		RPCPeak:     b.RPCHighWater(),
		Events:      int64(b.Len()) + b.Dropped(),
		Dropped:     b.Dropped(),
		CacheHits:   m.CacheHits,
		CacheMisses: m.CacheMisses,
		CacheEvicts: m.CacheEvicts,
		CachePinned: m.CachePinnedPeak,
		IntraBytes:  m.IntraBytes,
		InterBytes:  m.InterBytes,

		GraphFetches:   m.GraphFetches,
		GraphCoalesced: m.GraphCoalesced,

		SWARTasks:     m.SWARTasks,
		FallbackTasks: m.FallbackTasks,
		LaneCells:     m.LaneCells,
		LaneSlots:     m.LaneSlots,
	}
}
