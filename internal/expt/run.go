// Package expt reproduces the paper's evaluation: one experiment per table
// and figure (§4), plus the ablations and side studies, listed in one
// registry (Experiments) that cmd/scaling walks. Every experiment takes the
// one Params and returns a Result. Multinode experiments run the core
// drivers under the simulator (package sim); the wall-clock side studies
// run them for real (packages par, dist and serve).
package expt

import (
	"fmt"
	"sync"
	"time"

	"gnbody/internal/align"
	"gnbody/internal/core"
	"gnbody/internal/overlap"
	"gnbody/internal/partition"
	"gnbody/internal/pipeline"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
	"gnbody/internal/sim"
	"gnbody/internal/stats"
	"gnbody/internal/trace"
	"gnbody/internal/workload"
)

// Mode selects the coordination strategy.
type Mode string

// The strategies under study: the paper's two.
const (
	BSP   Mode = "BSP"
	Async Mode = "Async"
)

// Calibration constants for the simulated platform. The cost model is
// scaled to KNL single-thread speed so absolute runtimes land in the
// paper's ballpark (§4.1: E. coli 30x ≈1 h on one core, ≈1 min on 64).
const (
	// ExchangeFrac is the fraction of application memory available for
	// exchange buffers; the remainder holds the earlier pipeline stages'
	// resident structures (k-mer index, histograms, task tables).
	ExchangeFrac = 0.25

	// OverheadFlat/OverheadPtr are per-task local data-structure traversal
	// costs for the BSP flat arrays vs the async pointer structures
	// (§4.6, Figure 13).
	OverheadFlat = 1 * time.Microsecond
	OverheadPtr  = 3 * time.Microsecond
)

// KNLCostModel prices seed-and-extend tasks at Knights Landing
// single-thread speed (in-order core @1.4 GHz: ≈10 ns per DP cell).
func KNLCostModel() align.CostModel {
	return align.CostModel{
		PerTask: 5 * time.Microsecond,
		PerCell: 10 * time.Nanosecond,
		Band:    31,
		FPCells: 1500,
	}
}

// SimSpec configures one simulated driver execution.
type SimSpec struct {
	Workload       *workload.Workload
	Machine        sim.Machine
	Nodes          int
	RanksPerNode   int // default 4
	Mode           Mode
	SkipCompute    bool // §4.3 communication-only mode
	MaxOutstanding int
	FetchBatch     int  // async reads per RPC (§5 aggregation knob)
	Hierarchical   bool // price the alltoallv as the node-aggregated plan
	Seed           int64

	// NewTracer, when set, builds the structured-event tracer for the run
	// (ranks = total simulated ranks). Traced runs bypass the row cache —
	// the trace buffers belong to one execution — and fill Row.Trace and
	// Row.TraceRows for export.
	NewTracer func(ranks int) *trace.Tracer
}

// Row is the measured outcome of one simulated run — the numbers behind
// every figure.
type Row struct {
	Workload string
	Nodes    int
	Ranks    int
	Mode     Mode

	Runtime time.Duration // max simulated rank time

	// Cat holds mean per-rank time by category; CatMax the per-rank max.
	Cat    [rt.NumCategories]time.Duration
	CatMax [rt.NumCategories]time.Duration

	AlignTimes stats.Summary // per-rank cumulative alignment seconds (Figure 5)
	RecvBytes  stats.Summary // per-rank received exchange bytes (Figure 6)
	MaxMem     int64         // max per-rank footprint in bytes (Figure 11)
	MemBudget  int64         // configured per-rank budget
	Supersteps int64         // BSP rounds (Figure 9 commentary)
	RPCsSent   int64         // total RPCs issued (async)
	Hits       int64

	// Trace and TraceRows are set only when SimSpec.NewTracer was given:
	// the run's event buffers (for the Chrome exporter) and the flattened
	// per-rank metrics rows (for the CSV/JSON exporters).
	Trace     *trace.Tracer
	TraceRows []trace.RankMetrics
}

// CommShare returns visible communication as a fraction of runtime.
func (r Row) CommShare() float64 {
	if r.Runtime <= 0 {
		return 0
	}
	return float64(r.Cat[rt.CatComm]) / float64(r.Runtime)
}

// budgetFor scales the per-core budget of the paper's platform to the
// simulated rank granularity: a simulated rank stands in for
// CoresPerNode/RanksPerNode paper cores, and the workload is 1/Scale of
// the paper's, so the equivalent exchange budget scales by both factors.
func budgetFor(m sim.Machine, rpn, scale int) int64 {
	b := float64(m.AppMemPerCore) * ExchangeFrac
	b *= float64(m.CoresPerNode) / float64(rpn)
	b /= float64(scale)
	return int64(b)
}

// rowCache memoises completed runs: several figures consume the same
// sweeps (Figures 5, 6, 11, 12 and 13 all read the Human CCS scaling
// runs), rows are immutable once built, and the simulator is
// deterministic, so caching is exact. Keyed by every spec field that
// affects the outcome.
var rowCache sync.Map

func cacheKey(spec SimSpec) string {
	w := spec.Workload
	return fmt.Sprintf("%s|%d|%d|%s|%d|%d|%d|%s|%v|%d|%d|%d|%v",
		w.Preset.Name, w.Scale, len(w.Tasks), spec.Machine.Name,
		spec.Machine.AppMemPerCore, spec.Nodes, spec.RanksPerNode,
		spec.Mode, spec.SkipCompute, spec.MaxOutstanding, spec.FetchBatch, spec.Seed,
		spec.Hierarchical)
}

// driverOf maps the figures' display names onto core.Run's mode strings.
var driverOf = map[Mode]string{BSP: "bsp", Async: "async"}

// ownerTasks partitions the reads across ranks by size and assigns every
// task to the owner of one of its reads — the align-only experiments'
// stand-in for the discovery stage.
func ownerTasks(lens []int32, tasks []overlap.Task, ranks int) (*partition.Partition, [][]overlap.Task, error) {
	lensInt := make([]int, len(lens))
	for i, l := range lens {
		lensInt[i] = int(l)
	}
	pt, err := partition.BySize(lensInt, ranks)
	if err != nil {
		return nil, nil, err
	}
	return pt, partition.AssignTasks(tasks, pt), nil
}

// phantomInputs builds each rank's model-mode input: payloads of the true
// wire size, no bases.
func phantomInputs(pt *partition.Partition, lens []int32, byRank [][]overlap.Task) func(rank int) *core.Input {
	return func(rank int) *core.Input {
		return &core.Input{Part: pt, Lens: lens, Tasks: byRank[rank], Codec: core.PhantomCodec{Lens: lens}}
	}
}

// scopedInputs builds each rank's real-alignment input: an owner-only view
// of its partition and the real codec, so touching a remote read's bases
// without fetching it panics the experiment.
func scopedInputs(pt *partition.Partition, lens []int32, byRank [][]overlap.Task, reads *seq.ReadSet) func(rank int) *core.Input {
	return func(rank int) *core.Input {
		lo, hi := pt.Range(rank)
		store := seq.Scope(reads, lo, hi, lens)
		return &core.Input{Part: pt, Lens: lens, Tasks: byRank[rank], Store: store, Codec: core.RealCodec{Store: store}}
	}
}

// alignPass runs one exchange-and-align pass under mode on every rank of
// world, each on the input built for it, and returns the per-rank results.
func alignPass(world pipeline.World, mode Mode, ranks int, input func(rank int) *core.Input, cfg core.Config) ([]*core.Result, error) {
	results := make([]*core.Result, ranks)
	errs := make([]error, ranks)
	if err := world.Run(func(r rt.Runtime) {
		results[r.Rank()], errs[r.Rank()] = core.Run(driverOf[mode], r, input(r.Rank()), cfg)
	}); err != nil {
		return nil, err
	}
	for rk, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("rank %d: %w", rk, e)
		}
	}
	return results, nil
}

// RunSim executes one simulated driver run and reduces its metrics.
// Results are memoised per spec.
func RunSim(spec SimSpec) (*Row, error) {
	w := spec.Workload
	if spec.RanksPerNode <= 0 {
		spec.RanksPerNode = 4
	}
	if spec.MaxOutstanding <= 0 {
		spec.MaxOutstanding = 256
	}
	key := cacheKey(spec)
	if spec.NewTracer == nil { // traced runs are never memoised
		if v, ok := rowCache.Load(key); ok {
			return v.(*Row), nil
		}
	}
	ranks := spec.Nodes * spec.RanksPerNode
	pt, byRank, err := ownerTasks(w.Lens, w.Tasks, ranks)
	if err != nil {
		return nil, err
	}

	budget := budgetFor(spec.Machine, spec.RanksPerNode, w.Scale)
	var tracer *trace.Tracer
	if spec.NewTracer != nil {
		tracer = spec.NewTracer(ranks)
	}
	eng, err := sim.NewEngine(sim.Config{
		Machine:      spec.Machine,
		Nodes:        spec.Nodes,
		RanksPerNode: spec.RanksPerNode,
		MemBudget:    budget,
		Seed:         spec.Seed,
		Tracer:       tracer,
		Hierarchical: spec.Hierarchical,
	})
	if err != nil {
		return nil, err
	}

	model := KNLCostModel()
	if spec.SkipCompute {
		// §4.3: everything runs except the alignment computation itself.
		model.PerTask, model.PerCell = 0, 0
		model.FPCells = 0
	}
	overhead := OverheadFlat
	if spec.Mode != BSP {
		overhead = OverheadPtr
	}
	exec := core.ModelExecutor{Model: model, Meta: w.Meta(), Overhead: overhead}

	results, err := alignPass(eng, spec.Mode, ranks, phantomInputs(pt, w.Lens, byRank),
		core.Config{Exec: exec, MinScore: 1, MaxOutstanding: spec.MaxOutstanding,
			FetchBatch: spec.FetchBatch})
	if err != nil {
		return nil, err
	}

	row := &Row{Workload: w.Preset.Name, Nodes: spec.Nodes, Ranks: ranks, Mode: spec.Mode,
		Runtime: eng.MaxClock(), MemBudget: budget}
	alignT := make([]time.Duration, ranks)
	recvB := make([]int64, ranks)
	for rk := 0; rk < ranks; rk++ {
		m := eng.Metrics(rk)
		for c := rt.Category(0); c < rt.NumCategories; c++ {
			row.Cat[c] += m.Time[c] / time.Duration(ranks)
			if m.Time[c] > row.CatMax[c] {
				row.CatMax[c] = m.Time[c]
			}
		}
		alignT[rk] = m.Time[rt.CatAlign]
		recvB[rk] = results[rk].ExchangeRecvBytes
		if m.MaxMem > row.MaxMem {
			row.MaxMem = m.MaxMem
		}
		if s := m.Supersteps; s > row.Supersteps {
			row.Supersteps = s
		}
		row.RPCsSent += m.RPCsSent
		row.Hits += int64(len(results[rk].Hits))
	}
	row.AlignTimes = stats.SummarizeDurations(alignT)
	row.RecvBytes = stats.SummarizeInt64(recvB)
	if tracer != nil {
		row.Trace = tracer
		row.TraceRows = make([]trace.RankMetrics, ranks)
		for rk := 0; rk < ranks; rk++ {
			row.TraceRows[rk] = rt.TraceRow(rk, eng.Metrics(rk), tracer.Rank(rk))
		}
		return row, nil
	}
	rowCache.Store(key, row)
	return row, nil
}

// breakdownTable renders rows as a runtime-breakdown table in the style of
// Figures 3, 4, 8, 9, 10: absolute runtime plus per-category shares.
func breakdownTable(title string, rows []*Row) *stats.Table {
	t := &stats.Table{Title: title, Headers: []string{
		"workload", "nodes", "ranks", "mode", "runtime",
		"align%", "ovhd%", "comm%", "sync%", "steps",
	}}
	for _, r := range rows {
		den := float64(r.Runtime)
		pct := func(c rt.Category) string {
			if den <= 0 {
				return "-"
			}
			return stats.FmtPct(float64(r.Cat[c]) / den)
		}
		t.AddRow(r.Workload, fmt.Sprint(r.Nodes), fmt.Sprint(r.Ranks), string(r.Mode),
			stats.FmtDur(r.Runtime), pct(rt.CatAlign), pct(rt.CatOverhead),
			pct(rt.CatComm), pct(rt.CatSync), fmt.Sprint(r.Supersteps))
	}
	return t
}
