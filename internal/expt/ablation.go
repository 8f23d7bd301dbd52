package expt

import (
	"fmt"

	"gnbody/internal/rt"
	"gnbody/internal/sim"
	"gnbody/internal/stats"
	"gnbody/internal/workload"
)

// Ablations for the design choices the paper calls out (DESIGN.md §7).

// Ablations runs every ablation, one table each.
func Ablations(p Params) (Result, error) {
	var all Result
	for _, ablate := range []func(Params) (Result, error){AblationOutstanding,
		AblationAggregation, AblationNetwork, AblationFetchBatch} {
		r, err := ablate(p)
		if err != nil {
			return Result{}, err
		}
		all.Tables = append(all.Tables, r.Tables...)
		all.Rows = append(all.Rows, r.Rows...)
	}
	return all, nil
}

// AblationOutstanding sweeps the asynchronous driver's outstanding-request
// cap (§4.3 speculates "varying limits on outgoing requests" could improve
// the 8-16 node latency anomaly). Communication-only mode isolates the
// effect.
func AblationOutstanding(p Params) (Result, error) {
	p = p.defaults()
	w, err := p.synth(workload.HumanCCS)
	if err != nil {
		return Result{}, err
	}
	s := p.spec(w, sim.CoriKNL())
	s.Nodes, s.Mode, s.SkipCompute = p.nodesOr([]int{8})[0], Async, true
	t := &stats.Table{
		Title:   fmt.Sprintf("Ablation: async outstanding-request cap (Human CCS, %d nodes, compute skipped)", s.Nodes),
		Headers: []string{"cap", "avg-comm", "max-comm", "runtime"},
	}
	var rows []*Row
	for _, c := range []int{1, 4, 16, 64, 256, 1024} {
		s.MaxOutstanding = c
		row, err := RunSim(s)
		if err != nil {
			return Result{}, err
		}
		rows = append(rows, row)
		t.AddRow(fmt.Sprint(c), stats.FmtDur(row.Cat[rt.CatComm]),
			stats.FmtDur(row.CatMax[rt.CatComm]), stats.FmtDur(row.Runtime))
	}
	return Result{Tables: []*stats.Table{t}, Rows: rows}, nil
}

// AblationAggregation contrasts BSP under shrinking memory budgets: less
// aggregation → more supersteps → more synchronization and per-round
// latency (the §5 argument that memory enables aggregation enables
// performance). Budget factors scale the default budget.
func AblationAggregation(p Params) (Result, error) {
	p = p.defaults()
	w, err := p.synth(workload.HumanCCS)
	if err != nil {
		return Result{}, err
	}
	m := sim.CoriKNL()
	s := p.spec(w, m)
	s.Nodes, s.Mode = p.nodesOr([]int{8})[0], BSP
	t := &stats.Table{
		Title:   fmt.Sprintf("Ablation: BSP aggregation vs memory budget (Human CCS, %d nodes)", s.Nodes),
		Headers: []string{"budget", "steps", "comm", "sync", "runtime"},
	}
	var rows []*Row
	for _, f := range []float64{1, 0.5, 0.25, 0.125, 0.0625} {
		// Scale the budget by shrinking per-core memory.
		s.Machine.AppMemPerCore = int64(float64(m.AppMemPerCore) * f)
		row, err := RunSim(s)
		if err != nil {
			return Result{}, err
		}
		rows = append(rows, row)
		t.AddRow(stats.FmtBytes(row.MemBudget), fmt.Sprint(row.Supersteps),
			stats.FmtDur(row.Cat[rt.CatComm]), stats.FmtDur(row.Cat[rt.CatSync]),
			stats.FmtDur(row.Runtime))
	}
	return Result{Tables: []*stats.Table{t}, Rows: rows}, nil
}

// AblationFetchBatch sweeps the async driver's reads-per-RPC on the
// high-latency network — §5: "on a high-latency network however, we would
// expect more aggregation to be necessary". Computation is skipped so the
// sweep isolates the communication effect (the regime where §5's argument
// bites: per-message latency has outrun per-task compute).
func AblationFetchBatch(p Params) (Result, error) {
	p = p.defaults()
	w, err := p.synth(workload.EColi100x)
	if err != nil {
		return Result{}, err
	}
	s := p.spec(w, sim.HighLatencyCloud())
	s.Nodes, s.Mode, s.SkipCompute = p.nodesOr([]int{32})[0], Async, true
	t := &stats.Table{
		Title:   fmt.Sprintf("Ablation: async aggregation (reads per RPC) on a 30us network (E. coli 100x, %d nodes)", s.Nodes),
		Headers: []string{"fetch-batch", "runtime", "comm", "rpcs", "maxmem"},
	}
	var rows []*Row
	for _, b := range []int{1, 4, 16, 64} {
		s.FetchBatch = b
		row, err := RunSim(s)
		if err != nil {
			return Result{}, err
		}
		rows = append(rows, row)
		t.AddRow(fmt.Sprint(b), stats.FmtDur(row.Runtime), stats.FmtDur(row.Cat[rt.CatComm]),
			stats.FmtCount(row.RPCsSent), stats.FmtBytes(row.MaxMem))
	}
	return Result{Tables: []*stats.Table{t}, Rows: rows}, nil
}

// AblationNetwork reruns the Figure 8 comparison on the high-latency cloud
// preset: §5 predicts the asynchronous approach needs more aggregation once
// per-message latency overtakes per-task compute.
func AblationNetwork(p Params) (Result, error) {
	p = p.defaults()
	w, err := p.synth(workload.EColi100x)
	if err != nil {
		return Result{}, err
	}
	rows, err := sweep(p.spec(w, sim.HighLatencyCloud()), p.nodesOr([]int{8, 32, 128}), paperModes)
	if err != nil {
		return Result{}, err
	}
	t := comparisonTable("Ablation: E. coli 100x on a high-latency (30us) network", rows)
	return Result{Tables: []*stats.Table{t}, Rows: rows}, nil
}
