// Package dist is the message-passing back-end of the rt.Runtime interface,
// the one real runtime: ranks are separate processes connected by TCP, or
// goroutines of one process connected by the loopback fabric (package par's
// in-process world is such a world) — the collectives cannot tell. Ranks
// meet only through a point-to-point transport.Transport, and every runtime
// primitive is built purely from Send/Recv frames:
//
//   - Barrier is a dissemination barrier: ceil(log2 P) rounds in which rank
//     r signals rank (r+2^k) mod P and waits on rank (r-2^k) mod P — no
//     shared memory, no central coordinator.
//   - SplitBarrier sends its round-0 arrival token at entry, so the work a
//     rank does between entry and wait() genuinely overlaps the other
//     ranks' arrival; wait() runs the remaining rounds.
//   - Alltoallv is a pairwise exchange: in step s, send to (r+s) mod P and
//     receive from (r-s) mod P before advancing, so at most one partner's
//     payload is staged beyond the result buffers (the schedule that keeps
//     an irregular exchange inside the per-rank MemBudget discipline; the
//     BSP driver additionally sizes supersteps against MemBudget).
//   - Allreduce gathers contributions to rank 0, folds them in rank order,
//     and broadcasts the result.
//   - The RPC engine is transport.Engine, fed here from decoded wire
//     frames. Progress/Drain follow the application-level polling
//     discipline of the paper's UPC++ implementation (§3.2); a rank blocked
//     with nothing to poll parks on its transport's Ready signal.
//   - RPC request and response frames are queued (Transport.QueueV): on
//     TCP they wait in their link's outbox, so a burst of pulls or answers
//     leaves in one write; every other frame goes out at once, behind its
//     link's outbox. The outboxes are flushed on entry to and exit from
//     Progress, before a waitLoop first checks its condition (so no rank
//     parks with a frame queued), and when Run's body returns.
//
// Accounting: the application-level counters are Alltoallv payload bytes
// and non-empty messages, RPC requests and responses — none of the
// runtime's internal coordination frames (barrier tokens, reduce values)
// count, just as the simulator's collectives count none. The cross-backend
// conformance battery pins this: byte/message counters match the simulator
// exactly for the deterministic drivers. What the wire carries, frames and
// headers included, is the separate IntraBytes/InterBytes tier split.
//
// A transport failure (peer death, broken socket, stalled link) is fatal
// to the SPMD program but not to the process: the failing primitive
// records a RankError naming the operation and the peers involved, unwinds
// this rank's body, and Rank.Run/World.Run return the error (errors.go
// documents the mechanism). A peer that stalls without closing its socket
// is caught by the progress deadline: a rank blocked in a collective with
// no inbound frame for ProgressDeadline fails with ErrProgressDeadline
// instead of hanging forever.
package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"gnbody/internal/rt"
	"gnbody/internal/topo"
	"gnbody/internal/trace"
	"gnbody/internal/transport"
)

// DefaultProgressDeadline is how long a blocked collective tolerates total
// inbound silence before declaring its missing peers dead. Generous: at
// any healthy load imbalance the stragglers still emit barrier tokens and
// exchange frames well within it.
const DefaultProgressDeadline = 30 * time.Second

// Config parameterises the backend.
type Config struct {
	P         int           // rank count (used by NewWorld's loopback fabric)
	MemBudget int64         // per-rank exchange-memory budget; <=0 unlimited
	Tracer    *trace.Tracer // structured-event layer; nil disables tracing

	// ProgressDeadline bounds how long a rank may sit blocked in a
	// collective without receiving a single frame before it fails with
	// ErrProgressDeadline. 0 selects DefaultProgressDeadline; negative
	// disables the deadline entirely (a stalled peer then hangs the job,
	// as it would without this backend's failure handling).
	ProgressDeadline time.Duration

	// NodeSize groups consecutive ranks into "nodes" of this many ranks
	// (the last node may be smaller when P is not divisible). With
	// NodeSize > 1 the collectives aggregate hierarchically: alltoallv
	// rows and allreduce values combine node-locally first and cross the
	// node boundary once, through the node's leader (its first rank) —
	// hier.go documents the plans. Wire traffic is also classified into
	// the IntraBytes/InterBytes tiers by destination node. 0 or 1 means
	// every rank is its own node: flat collectives, all traffic
	// inter-node. Logical accounting (BytesSent/BytesRecv/Msgs) is
	// identical either way — aggregation changes what the wire carries,
	// not what the application exchanged.
	NodeSize int

	// NoAggregation keeps the flat collective algorithms while still
	// classifying per-tier bytes by NodeSize — the measurement baseline
	// that quantifies what hierarchical aggregation saves.
	NoAggregation bool

	// Placement maps each rank to a node *slot*: rank q lives on the node
	// whose slot group contains Placement[q] (node k owns slots
	// [k*NodeSize, (k+1)*NodeSize)), and the rank holding a node's first
	// slot is its leader. nil means the identity placement — rank q on
	// slot q, the historical consecutive-ranks grouping. A placement is
	// purely a regrouping: it changes which rank pairs count as intra- vs
	// inter-node (and which relay through leaders under aggregation),
	// never what the application exchanges, so results are byte-identical
	// under every permutation. Must be a permutation of 0..P-1 (topo.New
	// is the check): NewWorldOver rejects an invalid placement, and a rank
	// NewRank built from one fails its first Run with a *RankError (op
	// "placement") rather than route on a topology its peers do not share.
	Placement []int
}

// deadline resolves the configured progress deadline.
func (c Config) deadline() time.Duration {
	if c.ProgressDeadline == 0 {
		return DefaultProgressDeadline
	}
	if c.ProgressDeadline < 0 {
		return 0
	}
	return c.ProgressDeadline
}

// Wire message types (first payload byte of every transport frame).
const (
	msgBarrier   = 1 // [kind:1][epoch:8][round:1]
	msgA2A       = 2 // [epoch:8][data...]
	msgRedVal    = 3 // [epoch:8][val:8] contribution toward rank 0
	msgRedResult = 4 // [epoch:8][val:8] folded result from rank 0
	msgRPCReq    = 5 // [seq:4][payload...]
	msgRPCResp   = 6 // [seq:4][payload...]

	// Hierarchical alltoallv frames (hier.go). Records pack only non-empty
	// rows; ranks are uint16 (topo.MaxRelayRanks).
	msgA2AUp   = 7 // [epoch:8][{dst:2,len:4,payload}...] member -> leader
	msgA2AX    = 8 // [epoch:8][{src:2,dst:2,len:4,payload}...] leader -> leader
	msgA2ADown = 9 // [epoch:8][{src:2,len:4,payload}...] leader -> member
)

// barrier kinds.
const (
	barFull  = 0
	barSplit = 1
)

type barKey struct {
	kind  byte
	epoch uint64
	round byte
}

type srcKey struct {
	epoch uint64
	src   int
}

// Rank implements rt.Runtime over one transport endpoint. All methods must
// run on the owning rank's goroutine (or process).
type Rank struct {
	tp  transport.Transport
	id  int
	p   int
	cfg Config
	eng *transport.Engine
	met rt.Metrics
	tr  *trace.Buf

	nestedWall time.Duration

	deadline time.Duration // progress deadline; 0 = disabled
	timer    *time.Timer   // parks against the deadline; made on first use
	curOp    string        // collective currently blocked in (error context)
	failErr  *RankError    // sticky first failure; the rank is dead once set

	tm *topo.Map // which rank is on which node, who relays (nil on a rank born failed)

	barEpoch  [2]uint64 // next epoch per barrier kind
	barGot    map[barKey]struct{}
	a2aEpoch  uint64
	a2aGot    map[srcKey][]byte
	upGot     map[srcKey][]byte // hierarchical A2A: member rows at the leader
	xGot      map[srcKey][]byte // hierarchical A2A: cross-node leader frames
	downGot   map[uint64][]byte // hierarchical A2A: leader's delivery, by epoch
	redEpoch  uint64
	redGot    map[srcKey]int64
	redResult map[uint64]int64

	rpcHdr [5]byte // reused RPC frame-header scratch (QueueV snapshots before returning)
}

var _ rt.Runtime = (*Rank)(nil)

// NewRank wraps a connected transport endpoint as a runtime rank.
func NewRank(tp transport.Transport, cfg Config) *Rank {
	r := &Rank{
		tp:        tp,
		id:        tp.Rank(),
		p:         tp.Size(),
		cfg:       cfg,
		deadline:  cfg.deadline(),
		tr:        cfg.Tracer.Rank(tp.Rank()),
		barGot:    make(map[barKey]struct{}),
		a2aGot:    make(map[srcKey][]byte),
		upGot:     make(map[srcKey][]byte),
		xGot:      make(map[srcKey][]byte),
		downGot:   make(map[uint64][]byte),
		redGot:    make(map[srcKey]int64),
		redResult: make(map[uint64]int64),
	}
	var err error
	if r.tm, err = topo.New(r.p, cfg.NodeSize, cfg.Placement); err != nil {
		// NewRank cannot return an error, so the rank is born failed: its
		// first Run reports why instead of running the body.
		r.failErr = &RankError{Rank: r.id, Op: "placement", Err: err}
	}
	r.eng = transport.NewEngine(transport.EngineConfig{
		Rank:    r.id,
		Send:    r.sendRPC,
		Metrics: &r.met,
		Tracer:  r.tr,
		Nested:  func(d time.Duration) { r.nestedWall += d },
	})
	return r
}

// Run executes f as this rank's SPMD body, accumulating Elapsed — the
// single-rank equivalent of World.Run for multi-process launchers. It
// returns the rank's failure, if any: a *RankError naming the operation
// and cause when a transport fault or progress-deadline expiry unwound
// the body. A failed rank stays failed — later Runs return the same error
// without executing f, because the fabric underneath is unusable.
func (r *Rank) Run(f func(rt.Runtime)) error {
	if r.failErr != nil {
		return r.failErr
	}
	t0 := time.Now()
	err := r.protect(func(rt.Runtime) {
		f(r)
		r.flush() // the body's last frames may not wait for a later Run
	})
	r.met.Elapsed += time.Since(t0)
	return err
}

// Err returns this rank's sticky failure, or nil while it is healthy.
func (r *Rank) Err() error {
	if r.failErr == nil {
		return nil
	}
	return r.failErr
}

// ResetMetrics zeroes this rank's accounting so the next Run is measured
// in isolation (the single-rank form of World.ResetMetrics). Call only
// between Runs.
func (r *Rank) ResetMetrics() {
	r.met = rt.Metrics{}
	r.nestedWall = 0
}

// Close tears down the underlying transport endpoint.
func (r *Rank) Close() error { return r.tp.Close() }

// Transport exposes the endpoint (launchers close it; tests inspect it).
func (r *Rank) Transport() transport.Transport { return r.tp }

// World runs P ranks as goroutines over a shared fabric — the in-process
// shape of the distributed backend, used by the loopback and
// TCP-on-localhost conformance configurations and by in-process launchers.
type World struct {
	ranks []*Rank
}

// NewWorld builds a world whose ranks communicate over an in-memory
// loopback fabric.
func NewWorld(cfg Config) (*World, error) {
	if cfg.P <= 0 {
		return nil, fmt.Errorf("dist: P=%d must be positive", cfg.P)
	}
	return NewWorldOver(transport.NewLoopback(cfg.P), cfg)
}

// NewWorldOver builds a world over an existing fabric (endpoint i becomes
// rank i). The fabric's size must match len(fabric).
func NewWorldOver(fabric []transport.Transport, cfg Config) (*World, error) {
	if len(fabric) == 0 {
		return nil, fmt.Errorf("dist: empty fabric")
	}
	if _, err := topo.New(len(fabric), cfg.NodeSize, cfg.Placement); err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	w := &World{ranks: make([]*Rank, len(fabric))}
	for i, tp := range fabric {
		if tp.Rank() != i || tp.Size() != len(fabric) {
			return nil, fmt.Errorf("dist: fabric endpoint %d reports rank %d of %d", i, tp.Rank(), tp.Size())
		}
		w.ranks[i] = NewRank(tp, cfg)
	}
	return w, nil
}

// Run executes f as rank body on every rank concurrently and blocks until
// all ranks return. It may be called repeatedly; metrics accumulate across
// Runs unless ResetMetrics is called in between. The error joins every
// failed rank's *RankError (nil when all ranks completed): peer failure is
// an outcome the caller handles, not a process crash.
func (w *World) Run(f func(rt.Runtime)) error {
	var wg sync.WaitGroup
	errs := make([]error, len(w.ranks))
	for i, r := range w.ranks {
		wg.Add(1)
		go func(i int, r *Rank) {
			defer wg.Done()
			errs[i] = r.Run(f)
		}(i, r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Metrics returns the accounting for rank i. Call only between Runs.
func (w *World) Metrics(i int) *rt.Metrics { return &w.ranks[i].met }

// Size returns the world's rank count.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns the world's rank-i handle. Launchers use it to reach a
// specific rank's transport (chaos hooks abort it to simulate a killed
// worker; drain paths close it gracefully). The handle itself still obeys
// the single-goroutine ownership rules of its methods.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// ResetMetrics zeroes every rank's accounting. Call only between Runs.
func (w *World) ResetMetrics() {
	for _, r := range w.ranks {
		r.ResetMetrics()
	}
}

// Close tears down every rank's transport endpoint.
func (w *World) Close() error {
	var first error
	for _, r := range w.ranks {
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Rank returns the rank id.
func (r *Rank) Rank() int { return r.id }

// Size returns the number of ranks.
func (r *Rank) Size() int { return r.p }

// op resolves the operation name for error context: the collective this
// rank is blocked in, or fallback for direct calls.
func (r *Rank) op(fallback string) string {
	if r.curOp != "" {
		return r.curOp
	}
	return fallback
}

// sendFrame ships the wire frame hdr‖body — the header this runtime built
// and the payload it was handed, never joined (body is nil for frames
// built whole) — at once, behind whatever is queued for dst. A transport
// failure fails this rank with the operation's name and unwinds.
func (r *Rank) sendFrame(op string, dst int, hdr, body []byte) {
	r.tally(dst, hdr, body)
	if err := r.tp.SendV(dst, hdr, body); err != nil {
		r.raise(op, err)
	}
}

// tally classifies a frame's bytes into the intra/inter tier by destination
// node (with NodeSize unset every rank is its own node, so all dist traffic
// is inter — each rank is a separate process).
func (r *Rank) tally(dst int, hdr, body []byte) {
	n := int64(len(hdr) + len(body))
	if r.tm.SameNode(dst, r.id) {
		r.met.IntraBytes += n
	} else {
		r.met.InterBytes += n
	}
}

// sendRPC is the engine's conduit: the message's payload is queued behind
// a five-byte frame header. The header lives in per-rank scratch — the
// transport snapshots both pieces before returning and never polls, so
// neither the scratch nor a handler's reused response buffer can be
// rewritten under it.
func (r *Rank) sendRPC(dst int, m transport.Msg) {
	r.rpcHdr[0] = msgRPCResp
	if m.Req {
		r.rpcHdr[0] = msgRPCReq
	}
	binary.BigEndian.PutUint32(r.rpcHdr[1:], m.Seq)
	r.tally(dst, r.rpcHdr[:], m.Val)
	if err := r.tp.QueueV(dst, r.rpcHdr[:], m.Val); err != nil {
		r.raise(r.op("rpc"), err)
	}
}

// flush puts every queued RPC frame on the wire.
func (r *Rank) flush() {
	if err := r.tp.Flush(); err != nil {
		r.raise(r.op("rpc"), err)
	}
}

// Progress drains the transport inbox, dispatching every pending frame:
// RPC requests are answered through the registered handler, responses run
// their callbacks, and collective traffic is filed for its waiting
// primitive. It flushes queued RPC frames first — requests issued since
// the last poll go out before this rank looks for their answers — and
// last, so the responses it queued leave together. Returns whether any
// frame was handled. A transport or protocol failure fails this rank and
// unwinds to Run.
func (r *Rank) Progress() bool {
	r.flush()
	did := false
	for {
		from, frame, ok, err := r.tp.Recv()
		if err != nil {
			r.raise(r.op("progress"), err)
		}
		if !ok {
			r.flush()
			return did
		}
		did = true
		r.dispatch(from, frame)
	}
}

// dispatch files one decoded wire frame. Malformed frames are protocol
// corruption on the link from that rank — this rank fails (and names the
// sender), the process survives to report it.
//
// Frames whose bytes are provably dead once dispatch returns — barrier
// tokens, allreduce values, and RPC frames of both directions
// (Engine.Deliver runs the handler and sends the response, or runs the
// completion callback, before returning, and neither may retain what it
// was given) — are recycled back to the transport. A2A payloads are handed
// to the collective's caller, who owns them, so they are never recycled.
func (r *Rank) dispatch(from int, frame []byte) {
	if len(frame) == 0 {
		r.raise(r.op("progress"), fmt.Errorf("empty frame from rank %d", from))
	}
	typ, body := frame[0], frame[1:]
	switch typ {
	case msgBarrier:
		if len(body) != 10 {
			r.raise(r.op("progress"), fmt.Errorf("malformed barrier frame from rank %d", from))
		}
		k := barKey{kind: body[0], epoch: binary.BigEndian.Uint64(body[1:9]), round: body[9]}
		r.barGot[k] = struct{}{}
		r.tp.RecycleFrame(frame)
	case msgA2A:
		if len(body) < 8 {
			r.raise(r.op("progress"), fmt.Errorf("malformed alltoallv frame from rank %d", from))
		}
		k := srcKey{epoch: binary.BigEndian.Uint64(body[:8]), src: from}
		r.a2aGot[k] = body[8:]
	case msgA2AUp, msgA2AX, msgA2ADown:
		// Hierarchical alltoallv traffic: bodies are retained (records are
		// handed to the caller as recv slices), so never recycled.
		if len(body) < 8 {
			r.raise(r.op("progress"), fmt.Errorf("malformed hierarchical alltoallv frame from rank %d", from))
		}
		epoch := binary.BigEndian.Uint64(body[:8])
		switch typ {
		case msgA2AUp:
			r.upGot[srcKey{epoch: epoch, src: from}] = body[8:]
		case msgA2AX:
			r.xGot[srcKey{epoch: epoch, src: from}] = body[8:]
		default:
			r.downGot[epoch] = body[8:]
		}
	case msgRedVal, msgRedResult:
		if len(body) != 16 {
			r.raise(r.op("progress"), fmt.Errorf("malformed allreduce frame from rank %d", from))
		}
		epoch := binary.BigEndian.Uint64(body[:8])
		val := int64(binary.BigEndian.Uint64(body[8:16]))
		if typ == msgRedVal {
			r.redGot[srcKey{epoch: epoch, src: from}] = val
		} else {
			r.redResult[epoch] = val
		}
		r.tp.RecycleFrame(frame)
	case msgRPCReq, msgRPCResp:
		if len(body) < 4 {
			r.raise(r.op("progress"), fmt.Errorf("malformed rpc frame from rank %d", from))
		}
		if err := r.eng.Deliver(transport.Msg{
			Req:  typ == msgRPCReq,
			From: from,
			Seq:  binary.BigEndian.Uint32(body[:4]),
			Val:  body[4:],
		}); err != nil {
			r.raise(r.op("rpc"), err)
		}
		r.tp.RecycleFrame(frame)
	default:
		r.raise(r.op("progress"), fmt.Errorf("unknown frame type %d from rank %d", typ, from))
	}
}

// spinPolls is how many empty polls a blocked rank makes, yielding the
// processor between them, before it parks on its inbox: a peer that is
// about to answer is cheaper to catch spinning than to be woken for.
const spinPolls = 1024

// waitLoop polls Progress until cond holds, attributing the unserviced
// waiting time to cat. After spinPolls empty polls the rank parks on its
// transport's Ready signal, so a blocked rank costs no processor while its
// peers compute and wakes as soon as a frame (or a failure) lands. Nothing
// is queued whenever cond is checked: the loop flushes before the first
// check — so a Drain that need not wait still puts the pulls issued so far
// on the wire — and every later one follows a Progress, which flushes on
// exit. op names
// the blocked collective and waiting its missing peers: if no frame at all
// arrives for the progress deadline while blocked, the rank fails with a
// DeadlineError instead of hanging on a stalled or dead peer.
func (r *Rank) waitLoop(cat rt.Category, op string, waiting func() []int, cond func() bool) {
	t0 := time.Now()
	n0 := r.nestedWall
	prevOp := r.curOp
	r.curOp = op
	defer func() { r.curOp = prevOp }()
	lastIn := t0
	idle := 0
	r.flush()
	for !cond() {
		if r.Progress() {
			idle = 0
			lastIn = time.Now()
			continue
		}
		if idle++; idle <= spinPolls {
			runtime.Gosched()
			continue
		}
		r.park(op, lastIn, waiting)
	}
	if d := time.Since(t0) - (r.nestedWall - n0); d > 0 {
		r.met.Time[cat] += d
		r.nestedWall += d
	}
}

// park blocks until the transport signals Ready or the progress deadline,
// counted from lastIn (the last inbound frame), has just passed — and fails
// the rank if it already has. The rank's one timer is reused, so parking
// allocates nothing; a stale tick from an earlier park only wakes the rank
// for one more empty poll.
func (r *Rank) park(op string, lastIn time.Time, waiting func() []int) {
	if r.deadline <= 0 {
		<-r.tp.Ready()
		return
	}
	stalled := time.Since(lastIn)
	if stalled > r.deadline {
		r.raise(op, &DeadlineError{
			Op:       op,
			Stalled:  stalled,
			Waiting:  waiting(),
			Departed: r.tp.DepartedPeers(),
		})
	}
	if left := r.deadline - stalled + time.Microsecond; r.timer == nil {
		r.timer = time.NewTimer(left)
	} else {
		r.timer.Reset(left)
	}
	select {
	case <-r.tp.Ready():
	case <-r.timer.C:
	}
}

// barFrame encodes one barrier token.
func barFrame(kind byte, epoch uint64, round byte) []byte {
	frame := make([]byte, 0, 11)
	frame = append(frame, msgBarrier, kind)
	frame = binary.BigEndian.AppendUint64(frame, epoch)
	return append(frame, round)
}

// waitToken blocks until the (kind, epoch, round) token has arrived,
// consuming it. dist is the dissemination distance for this round; the
// peer owed to us is (id-dist) mod P.
func (r *Rank) waitToken(cat rt.Category, op string, kind byte, epoch uint64, round byte, dist int) {
	k := barKey{kind: kind, epoch: epoch, round: round}
	src := (r.id - dist + r.p) % r.p
	r.waitLoop(cat, op, func() []int { return []int{src} }, func() bool {
		_, ok := r.barGot[k]
		return ok
	})
	delete(r.barGot, k)
}

// disseminate runs dissemination rounds firstRound.. for the given barrier
// epoch: in round k, signal rank (id+2^k) mod P and wait on (id-2^k) mod P.
func (r *Rank) disseminate(op string, kind byte, epoch uint64, firstRound int) {
	for round, dist := 0, 1; dist < r.p; round, dist = round+1, dist*2 {
		if round < firstRound {
			continue
		}
		r.sendFrame(op, (r.id+dist)%r.p, barFrame(kind, epoch, byte(round)), nil)
		r.waitToken(rt.CatSync, op, kind, epoch, byte(round), dist)
	}
}

// Barrier blocks until all ranks arrive, servicing RPCs while waiting.
func (r *Rank) Barrier() {
	t0 := r.tr.Now()
	epoch := r.barEpoch[barFull]
	r.barEpoch[barFull]++
	r.disseminate("barrier", barFull, epoch, 0)
	r.tr.Span(trace.KindBarrier, t0, 0)
}

// SplitBarrier enters phase one — announcing this rank's arrival with the
// round-0 dissemination token, so work done before wait() overlaps the
// other ranks' arrival — and returns the phase-two wait, which completes
// the remaining rounds.
func (r *Rank) SplitBarrier() (wait func()) {
	epoch := r.barEpoch[barSplit]
	r.barEpoch[barSplit]++
	if r.p > 1 {
		r.sendFrame("split-barrier", (r.id+1)%r.p, barFrame(barSplit, epoch, 0), nil)
	}
	return func() {
		t0 := r.tr.Now()
		if r.p > 1 {
			r.waitToken(rt.CatSync, "split-barrier", barSplit, epoch, 0, 1)
			r.disseminate("split-barrier", barSplit, epoch, 1)
		}
		r.tr.Span(trace.KindSplitBarrier, t0, 0)
	}
}

// Alltoallv exchanges byte messages with every rank by pairwise steps:
// step s sends to (id+s) mod P and receives from (id-s) mod P before
// advancing, bounding staged exchange memory. Receive slices are fresh
// buffers owned by the caller; nil/empty sends arrive as empty.
func (r *Rank) Alltoallv(send [][]byte) [][]byte {
	if len(send) != r.p {
		r.raise("alltoallv", fmt.Errorf("send has %d entries, want %d", len(send), r.p))
	}
	tEnter := r.tr.Now()
	for _, m := range send {
		r.met.BytesSent += int64(len(m))
		if len(m) > 0 {
			r.met.Msgs++
		}
	}
	epoch := r.a2aEpoch
	r.a2aEpoch++
	t0 := time.Now()
	n0 := r.nestedWall
	recv := make([][]byte, r.p)
	self := send[r.id]
	if len(self) > 0 {
		cp := make([]byte, len(self))
		copy(cp, self)
		recv[r.id] = cp
	} else if self != nil {
		recv[r.id] = []byte{}
	}
	r.met.BytesRecv += int64(len(self))
	if r.relay() {
		r.alltoallvHier(epoch, send, recv)
	} else {
		var hdr [topo.FrameHeader]byte
		hdr[0] = msgA2A
		binary.BigEndian.PutUint64(hdr[1:], epoch)
		for step := 1; step < r.p; step++ {
			dst := (r.id + step) % r.p
			src := (r.id - step + r.p) % r.p
			r.sendFrame("alltoallv", dst, hdr[:], send[dst])
			k := srcKey{epoch: epoch, src: src}
			r.waitLoop(rt.CatComm, "alltoallv", func() []int { return []int{src} }, func() bool {
				_, ok := r.a2aGot[k]
				return ok
			})
			recv[src] = r.a2aGot[k]
			delete(r.a2aGot, k)
			r.met.BytesRecv += int64(len(recv[src]))
		}
	}
	if d := time.Since(t0) - (r.nestedWall - n0); d > 0 {
		// Residual transfer time not already attributed by the waits.
		r.met.Time[rt.CatComm] += d
		r.nestedWall += d
	}
	if r.tr != nil {
		var rb int64
		for _, m := range recv {
			rb += int64(len(m))
		}
		r.tr.Span(trace.KindExchange, tEnter, rb)
	}
	return recv
}

// redFrame encodes one allreduce value message.
func redFrame(typ byte, epoch uint64, val int64) []byte {
	frame := make([]byte, 0, 17)
	frame = append(frame, typ)
	frame = binary.BigEndian.AppendUint64(frame, epoch)
	return binary.BigEndian.AppendUint64(frame, uint64(val))
}

// Allreduce combines v across ranks: contributions gather to rank 0, fold
// in rank order, and the result broadcasts back. Like every coordination
// frame, the reduction counts no application messages.
func (r *Rank) Allreduce(v int64, op rt.Op) int64 {
	epoch := r.redEpoch
	r.redEpoch++
	if r.p == 1 {
		return v
	}
	if r.relay() {
		return r.allreduceHier(epoch, v, op)
	}
	if r.id == 0 {
		vals := make([]int64, r.p)
		vals[0] = v
		for src := 1; src < r.p; src++ {
			k := srcKey{epoch: epoch, src: src}
			r.waitLoop(rt.CatSync, "allreduce", func() []int { return []int{src} }, func() bool {
				_, ok := r.redGot[k]
				return ok
			})
			vals[src] = r.redGot[k]
			delete(r.redGot, k)
		}
		acc := vals[0]
		for i := 1; i < r.p; i++ {
			acc = op.Combine(acc, vals[i])
		}
		for dst := 1; dst < r.p; dst++ {
			r.sendFrame("allreduce", dst, redFrame(msgRedResult, epoch, acc), nil)
		}
		return acc
	}
	r.sendFrame("allreduce", 0, redFrame(msgRedVal, epoch, v), nil)
	r.waitLoop(rt.CatSync, "allreduce", func() []int { return []int{0} }, func() bool {
		_, ok := r.redResult[epoch]
		return ok
	})
	acc := r.redResult[epoch]
	delete(r.redResult, epoch)
	return acc
}

// Serve registers the RPC handler for this rank.
func (r *Rank) Serve(handler func([]byte) []byte) { r.eng.Serve(handler) }

// AsyncCall issues a request to owner; cb runs during later progress.
func (r *Rank) AsyncCall(owner int, req []byte, cb func([]byte)) {
	r.eng.Call(owner, req, cb)
}

// Outstanding reports issued requests whose callbacks have not run.
func (r *Rank) Outstanding() int { return r.eng.Outstanding() }

// Drain blocks until Outstanding() <= max; visible time is unhidden
// communication latency.
func (r *Rank) Drain(max int) {
	t0 := r.tr.Now()
	r.waitLoop(rt.CatComm, "drain", r.eng.PendingOwners,
		func() bool { return r.eng.Outstanding() <= max })
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
func (r *Rank) MemBudget() int64 { return r.cfg.MemBudget }

// Metrics exposes this rank's accounting.
func (r *Rank) Metrics() *rt.Metrics { return &r.met }

// Tracer returns this rank's trace buffer (nil when tracing is disabled).
func (r *Rank) Tracer() *trace.Buf { return r.tr }
