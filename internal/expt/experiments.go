package expt

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"gnbody/internal/rt"
	"gnbody/internal/sim"
	"gnbody/internal/stats"
	"gnbody/internal/trace"
	"gnbody/internal/workload"
)

// Params sizes every experiment. Zero values select the defaults recorded
// in EXPERIMENTS.md; tests shrink them for wall-clock budget.
type Params struct {
	ScaleEColi30x  int // workload scale divisors (Table 1 ÷ scale)
	ScaleEColi100x int
	ScaleHumanCCS  int
	RanksPerNode   int   // simulated ranks per node (each stands for 64/rpn cores)
	Nodes          []int // node counts for strong-scaling sweeps
	Seed           int64

	// NodeSize > 1 prices the simulated alltoallv as the node-aggregated
	// hierarchical plan and groups the dist experiment's ranks into nodes.
	NodeSize int

	// The wall-clock side studies run the real pipeline on E. coli 30x ÷
	// their own divisor: intranode (default 150) on 1..MaxCores ranks
	// (default: host CPUs), dist (default 300), and serve (default 600)
	// with ServeJobs jobs per phase (default 4).
	IntraScale, MaxCores  int
	DistScale             int
	ServeScale, ServeJobs int

	// NewTracer, when set, is passed to every RunSim so each simulated run
	// records structured events; cmd/scaling exports the last traced run.
	NewTracer func(ranks int) *trace.Tracer
}

func (p Params) defaults() Params {
	for _, d := range []struct {
		v   *int
		def int
	}{
		{&p.ScaleEColi30x, 8}, {&p.ScaleEColi100x, 64}, {&p.ScaleHumanCCS, 256},
		{&p.RanksPerNode, 4}, {&p.IntraScale, 150}, {&p.MaxCores, runtime.NumCPU()},
		{&p.DistScale, 300}, {&p.ServeScale, 600}, {&p.ServeJobs, 4},
	} {
		if *d.v <= 0 {
			*d.v = d.def
		}
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

func (p Params) nodesOr(def []int) []int {
	if len(p.Nodes) > 0 {
		return p.Nodes
	}
	return def
}

// synth synthesizes a Table 1 preset at p's divisor for it.
func (p Params) synth(preset workload.Preset) (*workload.Workload, error) {
	scale := p.ScaleHumanCCS
	switch preset.Name {
	case workload.EColi30x.Name:
		scale = p.ScaleEColi30x
	case workload.EColi100x.Name:
		scale = p.ScaleEColi100x
	}
	return workload.Synthesize(preset, scale, p.Seed)
}

// spec is the SimSpec every simulated experiment starts from: w on m at
// p's ranks per node, seed, tracer and node grouping.
func (p Params) spec(w *workload.Workload, m sim.Machine) SimSpec {
	return SimSpec{Workload: w, Machine: m, RanksPerNode: p.RanksPerNode, Seed: p.Seed,
		NewTracer: p.NewTracer, Hierarchical: p.NodeSize > 1}
}

// sweep runs base at every node count in every mode, node-major: the rows
// of one node count sit together, in modes order.
func sweep(base SimSpec, nodes []int, modes []Mode) ([]*Row, error) {
	var rows []*Row
	for _, n := range nodes {
		for _, mode := range modes {
			s := base
			s.Nodes, s.Mode = n, mode
			row, err := RunSim(s)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// paperModes are the paper's two strategies; a sweep over them yields BSP
// and Async rows in pairs.
var paperModes = []Mode{BSP, Async}

// ccsNodes is the paper's Human CCS strong-scaling range.
var ccsNodes = []int{8, 16, 32, 64, 128, 256, 512}

// ccs sweeps Human CCS on Cori KNL and returns the workload with the rows.
func (p Params) ccs(nodes []int, modes []Mode, skipCompute bool) (*workload.Workload, []*Row, error) {
	w, err := p.synth(workload.HumanCCS)
	if err != nil {
		return nil, nil, err
	}
	s := p.spec(w, sim.CoriKNL())
	s.SkipCompute = skipCompute
	rows, err := sweep(s, nodes, modes)
	return w, rows, err
}

// Experiment is one entry of the evaluation: a paper table or figure, the
// ablation set, or a side study.
type Experiment struct {
	ID  string
	Run func(Params) (Result, error)
}

// Result is what an experiment produced: its tables in print order, and
// the simulated rows behind them (none for experiments that simulate
// nothing), which the trace exporters and the shape tests read.
type Result struct {
	Tables []*stats.Table
	Rows   []*Row
}

// Render writes r's tables to w, a blank line between two.
func (r Result) Render(w io.Writer) {
	for i, t := range r.Tables {
		if i > 0 {
			fmt.Fprintln(w)
		}
		t.Render(w)
	}
}

// Experiments is every experiment, in cmd/scaling's -experiment order.
var Experiments = []Experiment{
	{"table1", Table1}, {"fig3", Fig3}, {"fig4", Fig4}, {"fig5", Fig5}, {"fig6", Fig6},
	{"fig7", Fig7}, {"fig8", Fig8}, {"fig9", Fig9}, {"fig10", Fig10}, {"fig11", Fig11},
	{"fig12", Fig12}, {"fig13", Fig13}, {"intranode", Intranode}, {"dist", Dist},
	{"serve", Serve}, {"assembly", Assembly}, {"ablations", Ablations},
}

// Table1 reproduces Table 1: the workload inventory, paper counts beside
// the synthesized scaled counts.
func Table1(p Params) (Result, error) {
	p = p.defaults()
	t := &stats.Table{
		Title: "Table 1: workloads (paper counts vs synthesized at 1/scale)",
		Headers: []string{"dataset", "species", "paper-reads", "paper-tasks",
			"scale", "reads", "tasks", "true", "false", "bases"},
	}
	for _, preset := range workload.Presets {
		w, err := p.synth(preset)
		if err != nil {
			return Result{}, err
		}
		t.AddRow(preset.Name, preset.Species,
			stats.FmtCount(int64(preset.PaperReads)), stats.FmtCount(preset.PaperTasks),
			fmt.Sprintf("1/%d", w.Scale),
			stats.FmtCount(int64(len(w.Lens))), stats.FmtCount(int64(len(w.Tasks))),
			stats.FmtCount(int64(w.TrueTasks)), stats.FmtCount(int64(w.FalseTasks)),
			stats.FmtBytes(w.TotalBases()))
	}
	return Result{Tables: []*stats.Table{t}}, nil
}

// Fig3 reproduces Figure 3: single-node runtime breakdowns for E. coli 30×,
// BSP vs Async, with all 68 cores running the application (OS noise) versus
// 64 cores plus 4 isolating system overhead.
func Fig3(p Params) (Result, error) {
	p = p.defaults()
	w, err := p.synth(workload.EColi30x)
	if err != nil {
		return Result{}, err
	}
	var rows []*Row
	for _, m := range []sim.Machine{sim.CoriKNLNoIsolation(), sim.CoriKNL()} {
		s := p.spec(w, m)
		s.RanksPerNode = m.CoresPerNode
		rs, err := sweep(s, []int{1}, paperModes)
		if err != nil {
			return Result{}, err
		}
		rows = append(rows, rs...)
	}
	t := breakdownTable("Figure 3: E. coli 30x on 1 node, 68 cores (left) vs 64+4 cores (right)", rows)
	return Result{Tables: []*stats.Table{t}, Rows: rows}, nil
}

// Fig4 reproduces Figure 4: single-node (64+4 cores) runtime breakdowns on
// two problem sizes, E. coli 30× and E. coli 100×.
func Fig4(p Params) (Result, error) {
	p = p.defaults()
	var rows []*Row
	for _, preset := range []workload.Preset{workload.EColi30x, workload.EColi100x} {
		w, err := p.synth(preset)
		if err != nil {
			return Result{}, err
		}
		s := p.spec(w, sim.CoriKNL())
		s.RanksPerNode = s.Machine.CoresPerNode
		rs, err := sweep(s, []int{1}, paperModes)
		if err != nil {
			return Result{}, err
		}
		rows = append(rows, rs...)
	}
	t := breakdownTable("Figure 4: 1-node breakdowns on two problem sizes (64+4 cores)", rows)
	return Result{Tables: []*stats.Table{t}, Rows: rows}, nil
}

// Fig5 reproduces Figure 5: minimum, average and maximum cumulative
// seed-and-extend time per rank, and the load imbalance (max/mean), strong
// scaling Human CCS.
func Fig5(p Params) (Result, error) {
	p = p.defaults()
	_, rows, err := p.ccs(p.nodesOr(ccsNodes), []Mode{BSP}, false)
	if err != nil {
		return Result{}, err
	}
	t := &stats.Table{
		Title:   "Figure 5: cumulative seed-and-extend time and load imbalance, strong scaling Human CCS",
		Headers: []string{"nodes", "ranks", "align-min", "align-avg", "align-max", "imbalance"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprint(r.Nodes), fmt.Sprint(r.Ranks),
			stats.FmtDur(time.Duration(r.AlignTimes.Min*float64(time.Second))),
			stats.FmtDur(time.Duration(r.AlignTimes.Mean()*float64(time.Second))),
			stats.FmtDur(time.Duration(r.AlignTimes.Max*float64(time.Second))),
			fmt.Sprintf("%.2f", r.AlignTimes.Imbalance()))
	}
	return Result{Tables: []*stats.Table{t}, Rows: rows}, nil
}

// Fig6 reproduces Figure 6: the spread (max − min) of the bulk-synchronous
// exchange loads — received read bytes per rank — strong scaling Human CCS.
func Fig6(p Params) (Result, error) {
	p = p.defaults()
	_, rows, err := p.ccs(p.nodesOr(ccsNodes), []Mode{BSP}, false)
	if err != nil {
		return Result{}, err
	}
	t := &stats.Table{
		Title:   "Figure 6: BSP exchange-load imbalance (received bytes per rank), Human CCS",
		Headers: []string{"nodes", "ranks", "recv-min", "recv-max", "max-min", "imbalance"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprint(r.Nodes), fmt.Sprint(r.Ranks),
			stats.FmtBytes(int64(r.RecvBytes.Min)), stats.FmtBytes(int64(r.RecvBytes.Max)),
			stats.FmtBytes(int64(r.RecvBytes.Max-r.RecvBytes.Min)),
			fmt.Sprintf("%.2f", r.RecvBytes.Imbalance()))
	}
	return Result{Tables: []*stats.Table{t}, Rows: rows}, nil
}

// Fig7 reproduces Figure 7: absolute (unhidden) communication latency with
// the computation skipped, BSP vs Async, strong scaling Human CCS.
func Fig7(p Params) (Result, error) {
	p = p.defaults()
	_, rows, err := p.ccs(p.nodesOr(ccsNodes), paperModes, true)
	if err != nil {
		return Result{}, err
	}
	t := &stats.Table{
		Title:   "Figure 7: communication latency with computation skipped, Human CCS",
		Headers: []string{"nodes", "ranks", "BSP-avg-comm", "Async-avg-comm", "async/bsp"},
	}
	for i := 0; i < len(rows); i += 2 {
		b, a := rows[i], rows[i+1]
		ratio := "-"
		if b.Cat[rt.CatComm] > 0 {
			ratio = fmt.Sprintf("%.2f", float64(a.Cat[rt.CatComm])/float64(b.Cat[rt.CatComm]))
		}
		t.AddRow(fmt.Sprint(b.Nodes), fmt.Sprint(b.Ranks),
			stats.FmtDur(b.Cat[rt.CatComm]), stats.FmtDur(a.Cat[rt.CatComm]), ratio)
	}
	return Result{Tables: []*stats.Table{t}, Rows: rows}, nil
}

// Fig8 reproduces Figure 8: comparative runtime breakdown strong scaling
// E. coli 100× from 1 to 128 nodes — conditions optimal for BSP (a single
// bandwidth-maximizing exchange fits in memory at every scale).
func Fig8(p Params) (Result, error) {
	p = p.defaults()
	w, err := p.synth(workload.EColi100x)
	if err != nil {
		return Result{}, err
	}
	rows, err := sweep(p.spec(w, sim.CoriKNL()), p.nodesOr([]int{1, 2, 4, 8, 16, 32, 64, 128}), paperModes)
	if err != nil {
		return Result{}, err
	}
	t := comparisonTable("Figure 8: strong scaling E. coli 100x (single-superstep BSP regime)", rows)
	return Result{Tables: []*stats.Table{t}, Rows: rows}, nil
}

// comparisonTable is the breakdown table of paired BSP/Async rows with the
// Async-vs-BSP efficiency series the paper overlays on Figures 8-10.
func comparisonTable(title string, rows []*Row) *stats.Table {
	t := breakdownTable(title, rows)
	for i := 0; i < len(rows); i += 2 {
		b, a := rows[i], rows[i+1]
		t.AddRow(b.Workload, fmt.Sprint(b.Nodes), fmt.Sprint(b.Ranks), "Async/BSP",
			stats.FmtPct(float64(a.Runtime)/float64(b.Runtime)), "", "", "", "", "")
	}
	return t
}

// Fig9 reproduces Figure 9: Human CCS from 8 to 64 nodes, where the BSP
// exchange exceeds per-rank memory and must run multiple supersteps.
func Fig9(p Params) (Result, error) {
	return ccsComparison(p, []int{8, 16, 32, 64},
		"Figure 9: Human CCS, 8-64 nodes (memory-limited multi-round BSP)")
}

// Fig10 reproduces Figure 10: Human CCS from 64 to 512 nodes, where a
// single superstep fits.
func Fig10(p Params) (Result, error) {
	return ccsComparison(p, []int{64, 128, 256, 512},
		"Figure 10: Human CCS, 64-512 nodes (single-superstep BSP)")
}

func ccsComparison(p Params, nodes []int, title string) (Result, error) {
	p = p.defaults()
	_, rows, err := p.ccs(p.nodesOr(nodes), paperModes, false)
	if err != nil {
		return Result{}, err
	}
	return Result{Tables: []*stats.Table{comparisonTable(title, rows)}, Rows: rows}, nil
}

// Fig11 reproduces Figure 11: maximum per-rank memory footprint of both
// approaches vs the application-available budget and the estimated
// all-at-once exchange requirement, strong scaling Human CCS.
func Fig11(p Params) (Result, error) {
	p = p.defaults()
	w, rows, err := p.ccs(p.nodesOr(ccsNodes), paperModes, false)
	if err != nil {
		return Result{}, err
	}
	t := &stats.Table{
		Title: "Figure 11: max per-rank memory footprint, Human CCS",
		Headers: []string{"nodes", "ranks", "BSP-maxmem", "Async-maxmem",
			"budget", "est-1-round", "BSP-steps"},
	}
	for i := 0; i < len(rows); i += 2 {
		b, a := rows[i], rows[i+1]
		// The paper's estimate: total exchange load ÷ ranks + average
		// input partition size.
		est := int64(b.RecvBytes.Sum/float64(b.Ranks)) + w.TotalBases()/int64(b.Ranks)
		t.AddRow(fmt.Sprint(b.Nodes), fmt.Sprint(b.Ranks),
			stats.FmtBytes(b.MaxMem), stats.FmtBytes(a.MaxMem),
			stats.FmtBytes(b.MemBudget), stats.FmtBytes(est), fmt.Sprint(b.Supersteps))
	}
	return Result{Tables: []*stats.Table{t}, Rows: rows}, nil
}

// Fig12 reproduces Figure 12: the Figure 11 footprints on an absolute scale
// beside overall runtimes.
func Fig12(p Params) (Result, error) {
	p = p.defaults()
	_, rows, err := p.ccs(p.nodesOr(ccsNodes), paperModes, false)
	if err != nil {
		return Result{}, err
	}
	t := &stats.Table{
		Title: "Figure 12: memory footprint and runtime, Human CCS",
		Headers: []string{"nodes", "BSP-maxmem", "Async-maxmem", "BSP-runtime",
			"Async-runtime", "async/bsp"},
	}
	for i := 0; i < len(rows); i += 2 {
		b, a := rows[i], rows[i+1]
		t.AddRow(fmt.Sprint(b.Nodes),
			stats.FmtBytes(b.MaxMem), stats.FmtBytes(a.MaxMem),
			stats.FmtDur(b.Runtime), stats.FmtDur(a.Runtime),
			stats.FmtPct(float64(a.Runtime)/float64(b.Runtime)))
	}
	return Result{Tables: []*stats.Table{t}, Rows: rows}, nil
}

// Fig13 reproduces Figure 13: computational overhead of traversing the
// local task structures — BSP flat arrays vs async pointer structures —
// as a share of overall runtime, strong scaling Human CCS.
func Fig13(p Params) (Result, error) {
	p = p.defaults()
	_, rows, err := p.ccs(p.nodesOr(ccsNodes), paperModes, false)
	if err != nil {
		return Result{}, err
	}
	t := &stats.Table{
		Title: "Figure 13: local data-structure traversal overhead, Human CCS",
		Headers: []string{"nodes", "ranks", "BSP-ovhd", "BSP-ovhd%",
			"Async-ovhd", "Async-ovhd%"},
	}
	for i := 0; i < len(rows); i += 2 {
		b, a := rows[i], rows[i+1]
		t.AddRow(fmt.Sprint(b.Nodes), fmt.Sprint(b.Ranks),
			stats.FmtDur(b.Cat[rt.CatOverhead]),
			stats.FmtPct(float64(b.Cat[rt.CatOverhead])/float64(b.Runtime)),
			stats.FmtDur(a.Cat[rt.CatOverhead]),
			stats.FmtPct(float64(a.Cat[rt.CatOverhead])/float64(a.Runtime)))
	}
	return Result{Tables: []*stats.Table{t}, Rows: rows}, nil
}
