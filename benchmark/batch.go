package main

import (
	"crypto/sha256"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"gnbody/internal/core"
	"gnbody/internal/dist"
	"gnbody/internal/pipeline"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
	"gnbody/internal/transport"
)

// world is what the batch workloads need of a backend; par.World and
// dist.World both provide it.
type world interface {
	Run(f func(rt.Runtime)) error
	Metrics(i int) *rt.Metrics
	ResetMetrics()
}

// batch is a resident world with a stage list: the three batch workloads'
// rep is one RunStages pass over it.
type batch struct {
	e       *env
	w       world
	plan    *pipeline.Plan
	stores  []seq.Store
	initial func(rank int) any // seeds the first stage's prev; nil for none
	// check verifies one rep's outputs against the reference; a non-nil
	// error is a failed operation.
	check func(runs []*pipeline.StageRun) error
	// closeWorld tears the world down; nil when there is nothing to close.
	closeWorld func()

	// Per-rep observations. Counters come from rt.Metrics and core.Result
	// whether or not the rep is traced; stage spans exist only for traced
	// reps.
	reps []repObs
}

// close tears the batch's world down.
func (b *batch) close() {
	if b.closeWorld != nil {
		b.closeWorld()
	}
}

// runBatch is the life of a batch workload's program: the set-up cycles —
// open a world from the input file, run one cold body, tear down — and then
// the timed phase on one more world, which it returns still open.
func runBatch(e *env, minReps int, open func() (*batch, error)) (*batch, error) {
	if err := e.measureSetup(func() error {
		b, err := open()
		if err != nil {
			return err
		}
		defer b.close()
		_, err = b.rep(false)
		return err
	}); err != nil {
		return nil, err
	}
	b, err := open()
	if err != nil {
		return nil, err
	}
	if err := b.measure(minReps); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// repObs is what one rep leaves behind for the per-layer report.
type repObs struct {
	wall        float64 // raw seconds
	k           float64 // what calibrates this rep's times (timed reps only)
	traced      bool
	metrics     []rt.Metrics // per rank, for this rep alone
	remoteReads int          // distinct remote reads fetched, over ranks and passes
	supersteps  int          // BSP exchange rounds
	*repTrace                // traced reps only
}

// rep runs the stage list once on the resident world with metrics reset,
// checks the outputs and returns the wall time of the collective region.
func (b *batch) rep(traced bool) (float64, error) {
	e := b.e
	b.w.ResetMetrics()
	pl := *b.plan
	var rec *recorder
	var rt0 *repTrace
	op := e.attempted + 1
	root := 0
	if traced {
		rec = e.rec
		rt0 = newRepTrace(op, ranks)
		pl.Stages = traceStages(pl.Stages, rec, rt0)
		root = rec.open(0, op, "rep", -1)
	}
	runs := make([]*pipeline.StageRun, ranks)
	errs := make([]error, ranks)
	// Every rep starts from a collected heap, like the one-shot batch run
	// it stands for; garbage of the previous rep is not this one's to pay.
	runtime.GC()
	t0 := time.Now()
	runErr := b.w.Run(func(r rt.Runtime) {
		rk := r.Rank()
		if traced {
			rt0.body[rk] = rec.open(root, op, "rank", rk)
			defer rec.close(rt0.body[rk])
		}
		var init any
		if b.initial != nil {
			init = b.initial(rk)
		}
		runs[rk], errs[rk] = pl.RunStages(r, b.stores[rk], init)
	})
	wall := time.Since(t0).Seconds()
	if traced {
		rec.close(root)
	}
	e.attempted++
	if runErr != nil {
		return 0, runErr // the world is unusable after a rank failure
	}
	for rk, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("rank %d: %w", rk, err)
		}
	}
	if err := b.check(runs); err != nil {
		e.fail("op %d: %v", op, err)
	}
	obs := repObs{wall: wall, traced: traced, metrics: make([]rt.Metrics, ranks), repTrace: rt0}
	for rk := range obs.metrics {
		obs.metrics[rk] = b.w.Metrics(rk).Snapshot()
		for _, out := range runs[rk].Outs {
			if res, ok := out.(*core.Result); ok {
				obs.remoteReads += res.RemoteReads
				obs.supersteps = max(obs.supersteps, res.Supersteps)
			}
		}
	}
	b.reps = append(b.reps, obs)
	return wall, nil
}

// measure runs the timed phase and fills the end-to-end metrics every
// batch workload shares, then the per-layer metrics read off the reps.
func (b *batch) measure(minReps int) error {
	e := b.e
	factors, err := e.timedReps(minReps, b.rep)
	if err != nil {
		return err
	}
	b.reps = b.reps[warmupReps:]
	wire := make([]float64, len(b.reps))
	for i := range b.reps {
		b.reps[i].k = factors[i]
		for _, m := range b.reps[i].metrics {
			wire[i] += float64(m.IntraBytes + m.InterBytes)
		}
	}
	e.set("wire_mb", median(wire)/1e6)
	if !allEqual(wire) {
		fmt.Fprintf(e.report, "  note: wire bytes differ from rep to rep (spread %.3g of the median)\n", spread(wire))
	}
	if e.trace {
		b.layerReport()
	}
	return nil
}

// layerReport derives the per-layer metrics a batch workload's reps show:
// stage spans from the traced reps, category times and counters from all.
func (b *batch) layerReport() {
	e := b.e
	perRep := func(f func(o *repObs) float64, only func(o *repObs) bool) []float64 {
		var out []float64
		for i := range b.reps {
			if only == nil || only(&b.reps[i]) {
				out = append(out, f(&b.reps[i]))
			}
		}
		return out
	}
	isTraced := func(o *repObs) bool { return o.traced }
	sumRanks := func(f func(m *rt.Metrics) float64) func(o *repObs) float64 {
		return func(o *repObs) float64 {
			var s float64
			for rk := range o.metrics {
				s += f(&o.metrics[rk])
			}
			return s
		}
	}
	cat := func(c rt.Category) func(m *rt.Metrics) float64 {
		return func(m *rt.Metrics) float64 { return m.Time[c].Seconds() }
	}
	// calibrated turns a rep's raw seconds into calibrated ones.
	calibrated := func(f func(o *repObs) float64) func(o *repObs) float64 {
		return func(o *repObs) float64 { return f(o) * o.k }
	}
	// The critical-path rank's span of a stage: the slowest rank's.
	stageMax := func(name string) func(o *repObs) float64 {
		return func(o *repObs) float64 {
			var mx float64
			for _, st := range o.stage {
				mx = max(mx, st[name])
			}
			return mx
		}
	}
	stageMetric := func(metric, stage string) {
		if xs := perRep(calibrated(stageMax(stage)), isTraced); median(xs) > 0 {
			e.timing(metric, "s", xs)
		}
	}
	stageMetric("pipeline.discover_s", "discover")
	stageMetric("pipeline.align_s", "align")
	stageMetric("core.bsp_s", "bsp")
	stageMetric("core.async_s", "async")
	stageMetric("graph.build_s", "graph")
	stageMetric("graph.reduce_s", "reduce")
	stageMetric("graph.contigs_s", "contigs")
	e.timing("pipeline.stage_cover_frac", "ratio", perRep(func(o *repObs) float64 {
		var mx float64
		for _, st := range o.stage {
			var s float64
			for _, d := range st {
				s += d
			}
			mx = max(mx, s)
		}
		return mx / o.wall
	}, isTraced))

	rankS := perRep(calibrated(sumRanks(func(m *rt.Metrics) float64 { return m.Elapsed.Seconds() })), nil)
	kernel := perRep(calibrated(sumRanks(cat(rt.CatAlign))), nil)
	e.timing("core.rank_s", "s", rankS)
	e.timing("align.kernel_s", "s", kernel)
	e.timing("core.overhead_s", "s", perRep(calibrated(sumRanks(cat(rt.CatOverhead))), nil))
	e.timing("core.comm_s", "s", perRep(calibrated(sumRanks(cat(rt.CatComm))), nil))
	e.timing("core.sync_s", "s", perRep(calibrated(sumRanks(cat(rt.CatSync))), nil))
	if median(kernel) > 0 {
		e.timing("core.imbalance", "ratio", perRep(func(o *repObs) float64 {
			var mx, sum float64
			for rk := range o.metrics {
				a := o.metrics[rk].Time[rt.CatAlign].Seconds()
				mx, sum = max(mx, a), sum+a
			}
			return mx / (sum / float64(len(o.metrics)))
		}, nil))
	}

	// Counts: exact, so the last rep speaks for all (a rep-to-rep
	// difference is reported as a note).
	last := &b.reps[len(b.reps)-1]
	count := func(name string, f func(o *repObs) float64) {
		e.set(name, f(last))
		if !allEqual(perRep(f, nil)) {
			fmt.Fprintf(e.report, "  note: %s differs from rep to rep\n", name)
		}
	}
	count("dist.msgs", sumRanks(func(m *rt.Metrics) float64 { return float64(m.Msgs) }))
	count("graph.fetches", sumRanks(func(m *rt.Metrics) float64 { return float64(m.GraphFetches) }))
	count("core.remote_reads", func(o *repObs) float64 { return float64(o.remoteReads) })
	count("core.supersteps", func(o *repObs) float64 { return float64(o.supersteps) })
	var m rt.Metrics // the last rep's counters, summed over ranks
	for rk := range last.metrics {
		lm := &last.metrics[rk]
		m.SWARTasks += lm.SWARTasks
		m.FallbackTasks += lm.FallbackTasks
		m.LaneCells += lm.LaneCells
		m.LaneSlots += lm.LaneSlots
		m.GraphFetches += lm.GraphFetches
		m.GraphCoalesced += lm.GraphCoalesced
	}
	if n := m.SWARTasks + m.FallbackTasks; n > 0 {
		e.set("align.swar_task_frac", float64(m.SWARTasks)/float64(n))
		fmt.Fprintf(e.report, "  align.swar_task_frac: %d of %d tasks ran packed\n", m.SWARTasks, n)
	}
	if m.LaneSlots > 0 {
		e.set("align.lane_occupancy", float64(m.LaneCells)/float64(m.LaneSlots))
		fmt.Fprintf(e.report, "  align.lane_occupancy: %d live cells in %d lane slots\n", m.LaneCells, m.LaneSlots)
		if k := median(kernel); k > 0 {
			e.set("align.mcells_per_s", float64(m.LaneCells)/1e6/k)
		}
	}
	if n := m.GraphFetches + m.GraphCoalesced; n > 0 {
		e.set("graph.coalesced_frac", float64(m.GraphCoalesced)/float64(n))
		fmt.Fprintf(e.report, "  graph.coalesced_frac: %d of %d remote lookups needed no fetch\n", m.GraphCoalesced, n)
	}
	if !last.traced { // reps alternate, so the one before was traced
		last = &b.reps[len(b.reps)-2]
	}
	var rounds int
	for _, r := range last.rounds {
		rounds = max(rounds, r["contigs"])
	}
	e.set("graph.contig_rounds", float64(rounds))
}

// tcpFabric rendezvouses an n-rank socket mesh on 127.0.0.1 in-process.
func tcpFabric(n int) ([]transport.Transport, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	fabric := make([]transport.Transport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := transport.TCPConfig{Addr: addr}
			if i == 0 {
				cfg.Listener = ln
			}
			fabric[i], errs[i] = transport.Rendezvous(i, n, cfg)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			for _, tp := range fabric {
				if tp != nil {
					tp.Close()
				}
			}
			return nil, fmt.Errorf("rendezvous rank %d: %w", i, err)
		}
	}
	return fabric, nil
}

// tcpWorld builds the 2-rank dist world over real loopback sockets.
func tcpWorld() (*dist.World, error) {
	fabric, err := tcpFabric(ranks)
	if err != nil {
		return nil, err
	}
	return dist.NewWorldOver(fabric, dist.Config{NodeSize: 1})
}

// loadStores is the program's input path: index the FASTA file, plan the
// partition from the index, and load each rank's range.
func loadStores(path string, spec pipeline.Spec) (*pipeline.Plan, []seq.Store, error) {
	return loadStoresRanks(path, spec, ranks)
}

func loadStoresRanks(path string, spec pipeline.Spec, ranks int) (*pipeline.Plan, []seq.Store, error) {
	ix, err := seq.IndexFile(path)
	if err != nil {
		return nil, nil, err
	}
	plan, err := pipeline.NewPlan(ix.Lens, ranks, spec)
	if err != nil {
		return nil, nil, err
	}
	stores := make([]seq.Store, ranks)
	for rk := range stores {
		lo, hi := plan.Part.Range(rk)
		st, err := seq.LoadFileRange(path, ix, lo, hi)
		if err != nil {
			return nil, nil, err
		}
		stores[rk] = st
	}
	return plan, stores, nil
}

// hitsDigest is the digest of a hit set in canonical order.
func hitsDigest(hits []core.Hit) [32]byte {
	core.SortHits(hits)
	return sha256.Sum256(core.EncodeHits(hits))
}

// stageHits collects the hits of stage i from every rank's run.
func stageHits(runs []*pipeline.StageRun, i int) []core.Hit {
	var hits []core.Hit
	for _, run := range runs {
		hits = append(hits, run.Outs[i].(*core.Result).Hits...)
	}
	return hits
}
