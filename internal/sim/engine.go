package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"gnbody/internal/rt"
	"gnbody/internal/topo"
	"gnbody/internal/trace"
)

// Config parameterises one simulated execution.
type Config struct {
	Machine      Machine
	Nodes        int
	RanksPerNode int           // defaults to Machine.CoresPerNode
	MemBudget    int64         // per-rank exchange budget; <=0 → Machine.AppMemPerCore
	Seed         int64         // noise RNG seed
	Tracer       *trace.Tracer // structured-event layer (virtual-clock stamps); nil disables

	// Hierarchical prices the alltoallv as topo's relay plan, the one the
	// dist backend runs at NodeSize > 1: the inter-node injection term
	// serialises each node's whole cross-node volume through its leader,
	// the per-peer software overhead shrinks from (P - RanksPerNode)
	// messages to (Nodes - 1), and members' InterBytes drop to zero.
	// Where topo.Map.Relay says the plan cannot run (one node, one rank
	// per node), or with Hierarchical false, the flat plan is priced.
	Hierarchical bool

	// Placement is the rank→slot permutation of topo.New, as in
	// dist.Config.Placement (nil = identity). It changes only which pairs
	// are priced and classified as intra- vs inter-node and who relays;
	// the exchanged payloads are untouched.
	Placement []int
}

// Ranks returns the total simulated rank count.
func (c Config) Ranks() int {
	rpn := c.RanksPerNode
	if rpn <= 0 {
		rpn = c.Machine.CoresPerNode
	}
	return c.Nodes * rpn
}

// event kinds.
const (
	evRequest = iota
	evResponse
	evBarRel
	evSplitRel
	evA2ARel
	evRedRel
)

// event is one timestamped message in a proc's inbound queue.
type event struct {
	arrival int64 // virtual ns
	stamp   int64 // global tie-break for deterministic ordering
	kind    int
	from    int
	seq     uint32
	val     []byte
	t0      int64    // collective release: synchronisation point
	done    int64    // a2a release: transfer completion time
	recv    [][]byte // a2a release payload
	red     int64    // allreduce result
}

// eventHeap orders events by (arrival, stamp).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].arrival != h[j].arrival {
		return h[i].arrival < h[j].arrival
	}
	return h[i].stamp < h[j].stamp
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// pqItem schedules a proc at a wake time.
type pqItem struct {
	p     *proc
	wake  int64
	stamp int64
}

type procHeap []pqItem

func (h procHeap) Len() int { return len(h) }
func (h procHeap) Less(i, j int) bool {
	if h[i].wake != h[j].wake {
		return h[i].wake < h[j].wake
	}
	return h[i].p.id < h[j].p.id
}
func (h procHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *procHeap) Push(x interface{}) { *h = append(*h, x.(pqItem)) }
func (h *procHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// collective tracks one in-flight collective of a given kind.
type collective struct {
	arrived  int
	maxT     int64
	arriveAt []int64
	store    [][][]byte // alltoallv sends
	vals     []int64    // allreduce inputs
}

// Engine coordinates the simulated ranks. All engine and proc state is
// accessed under a strict scheduler⇄proc handoff (exactly one goroutine
// runs at any moment), so no locking is required and runs are
// deterministic.
type Engine struct {
	cfg   Config
	p     int
	procs []*proc
	pq    procHeap
	back  chan struct{}
	stamp int64

	tm *topo.Map // Config.Placement over nodes of RanksPerNode

	bar, split, a2a, red collective

	running bool
}

// NewEngine validates the config and builds the simulated world.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("sim: nodes=%d must be positive", cfg.Nodes)
	}
	if cfg.RanksPerNode <= 0 {
		cfg.RanksPerNode = cfg.Machine.CoresPerNode
	}
	if cfg.RanksPerNode <= 0 {
		return nil, fmt.Errorf("sim: machine %q has no cores", cfg.Machine.Name)
	}
	if cfg.MemBudget <= 0 {
		cfg.MemBudget = cfg.Machine.AppMemPerCore
	}
	p := cfg.Nodes * cfg.RanksPerNode
	tm, err := topo.New(p, cfg.RanksPerNode, cfg.Placement)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	e := &Engine{cfg: cfg, p: p, tm: tm, back: make(chan struct{})}
	e.procs = make([]*proc, p)
	for i := 0; i < p; i++ {
		pr := &proc{
			id:      i,
			eng:     e,
			pending: make(map[uint32]func([]byte)),
			rng:     rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
			resume:  make(chan struct{}),
			tr:      cfg.Tracer.Rank(i),
		}
		// Trace events are stamped on this rank's virtual clock.
		pr.tr.SetClock(func() int64 { return pr.clock })
		if pr.tr != nil {
			pr.pendT0 = make(map[uint32]int64)
		}
		e.procs[i] = pr
	}
	e.bar.arriveAt = make([]int64, p)
	e.split.arriveAt = make([]int64, p)
	e.a2a.arriveAt = make([]int64, p)
	e.red.arriveAt = make([]int64, p)
	e.red.vals = make([]int64, p)
	return e, nil
}

// Ranks returns the simulated rank count.
func (e *Engine) Ranks() int { return e.p }

// Metrics returns rank i's accounting; Elapsed is its final virtual time.
func (e *Engine) Metrics(i int) *rt.Metrics { return &e.procs[i].met }

// Clock returns rank i's final virtual time.
func (e *Engine) Clock(i int) time.Duration { return time.Duration(e.procs[i].clock) }

// MaxClock returns the latest final virtual time across ranks — the
// simulated wall-clock runtime of the SPMD program.
func (e *Engine) MaxClock() time.Duration {
	var max int64
	for _, p := range e.procs {
		if p.clock > max {
			max = p.clock
		}
	}
	return time.Duration(max)
}

// Run executes body as every rank's program under virtual time and blocks
// until all ranks finish. It returns an error on deadlock (some rank
// parked forever). Run may only be called once per Engine.
func (e *Engine) Run(body func(r rt.Runtime)) error {
	if e.running {
		return fmt.Errorf("sim: Engine.Run may only be called once")
	}
	e.running = true
	for _, p := range e.procs {
		go p.main(body)
	}
	for _, p := range e.procs {
		e.push(p, 0)
	}
	alive := e.p
	for alive > 0 && len(e.pq) > 0 {
		it := heap.Pop(&e.pq).(pqItem)
		p := it.p
		if it.stamp != p.pqStamp || p.finished || p.stateParked() {
			continue // stale entry
		}
		p.resume <- struct{}{}
		<-e.back
		if p.finished {
			alive--
			continue
		}
		switch p.state {
		case stateReady:
			e.push(p, p.clock)
		case stateWaiting:
			if len(p.events) > 0 {
				e.push(p, p.events[0].arrival)
			} else {
				p.parked = true // wake when an event is posted
			}
		}
	}
	if alive > 0 {
		stuck := []int{}
		for _, p := range e.procs {
			if !p.finished {
				stuck = append(stuck, p.id)
			}
		}
		return fmt.Errorf("sim: deadlock: %d ranks parked forever (first few: %v)", alive, head(stuck, 8))
	}
	return nil
}

func head(xs []int, n int) []int {
	if len(xs) > n {
		return xs[:n]
	}
	return xs
}

// push schedules p at wake, invalidating older entries.
func (e *Engine) push(p *proc, wake int64) {
	e.stamp++
	p.pqStamp = e.stamp
	p.parked = false
	heap.Push(&e.pq, pqItem{p: p, wake: wake, stamp: e.stamp})
}

// post delivers ev to rank dst, waking it if parked or improving its wake
// time if it waits on a later event.
func (e *Engine) post(dst int, ev *event) {
	e.stamp++
	ev.stamp = e.stamp
	p := e.procs[dst]
	heap.Push(&p.events, ev)
	if p.parked {
		e.push(p, ev.arrival)
	} else if p.state == stateWaiting && len(p.events) > 0 && p.events[0] == ev {
		e.push(p, ev.arrival) // decrease-key via fresh entry
	}
}

// exchangeCost is the LogGP price of one alltoallv routed over tm: the
// pairwise exchange proceeds in lockstep, so every rank completes together
// after tree latency + the most-loaded rank's volume at each tier's
// bandwidth + the inter-node volume's bisection share + one software
// send/recv pair per peer (one per peer node when leaders relay). The
// max-load term is why the exchange-load imbalance of Figure 6 becomes
// everyone's communication latency. Only payload loads are priced; frame
// and record headers show in the tier byte counters alone.
func exchangeCost(m *Machine, tm *topo.Map, r topo.Routed) int64 {
	p, rpn := tm.Ranks(), tm.NodeSize()
	interPeers := int64(p - rpn)
	if r.Relay {
		interPeers = int64(tm.Nodes() - 1)
	}
	// Per-peer software cost, rescaled from per-core to per-sim-rank (each
	// sim rank stands for CoresPerNode/rpn cores, and the real exchange
	// has that many times more peers).
	msgOv := int64(m.A2AMsgOverhead)
	if m.CoresPerNode > rpn {
		msgOv *= int64(m.CoresPerNode / rpn)
	}
	return m.alphaLog(p) +
		max(slices.Max(r.InterSend), slices.Max(r.InterRecv))*int64(m.ByteTime) +
		max(slices.Max(r.IntraSend), slices.Max(r.IntraRecv))*int64(m.intraByteTime()) +
		r.InterPayload*int64(m.BisectByteTime)/int64(p) +
		interPeers*msgOv +
		int64(rpn-1)*msgOv/10
}

// alphaLog is the latency of a log-tree collective phase over p ranks.
func (m *Machine) alphaLog(p int) int64 {
	steps := int(math.Ceil(math.Log2(float64(p))))
	if steps < 1 {
		steps = 1
	}
	return int64(m.Alpha) * int64(steps)
}
