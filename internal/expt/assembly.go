package expt

import (
	"fmt"
	"time"

	"gnbody/internal/align"
	"gnbody/internal/core"
	"gnbody/internal/genome"
	"gnbody/internal/graph"
	"gnbody/internal/pipeline"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
	"gnbody/internal/sim"
	"gnbody/internal/stats"
	"gnbody/internal/workload"
)

// assemblyChain maps the -stages vocabulary onto how many assembly stages
// follow discovery and alignment.
var assemblyChain = map[string]int{"overlap": 0, "graph": 1, "reduce": 2, "contigs": 3}

// AssemblyParams configures the staged-assembly scaling experiment.
type AssemblyParams struct {
	GenomeLen int     // synthetic genome length (default 30000)
	Coverage  float64 // sampling depth (default 8)
	Stages    string  // chain prefix: overlap, graph, reduce or contigs (default contigs)
	Nodes     []int   // node counts (default 1, 2, 4)
	RPN       int     // ranks per node (default 4)
	Seed      int64
}

// Assembly measures the staged pipeline — discovery, alignment, string
// graph, transitive reduction, contigs — on the simulated Cori platform
// across node counts. Alignment runs the real X-drop kernel on error-free
// sampled reads (the graph needs true extents), so its column prices only
// the exchange; the assembly stages are priced by graph.DefaultCostModel.
// Per-stage columns are the max simulated time over ranks; the edge and
// contig counts double as a cross-node-count invariant — the graph is a
// pure function of the hit set, so they must not change with scale.
func Assembly(p AssemblyParams) (*stats.Table, error) {
	if p.GenomeLen <= 0 {
		p.GenomeLen = 30000
	}
	if p.Coverage <= 0 {
		p.Coverage = 8
	}
	if p.Stages == "" {
		p.Stages = "contigs"
	}
	nAsm, ok := assemblyChain[p.Stages]
	if !ok {
		return nil, fmt.Errorf("expt: unknown -stages %q (want overlap, graph, reduce or contigs)", p.Stages)
	}
	if len(p.Nodes) == 0 {
		p.Nodes = []int{1, 2, 4}
	}
	if p.RPN <= 0 {
		p.RPN = 4
	}

	g := genome.Generate(genome.Config{Length: p.GenomeLen, Seed: p.Seed})
	smp, err := genome.NewSampler(g, genome.ReadConfig{
		Coverage: p.Coverage, MeanLen: 600, SigmaLog: 0.15,
		BothStrands: true, Seed: p.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	reads, _ := smp.Sample()
	lens := workload.LensOf(reads)

	stageNames := append([]string{"discover", "align"},
		[]string{"graph", "reduce", "contigs"}[:nAsm]...)
	headers := append([]string{"nodes", "ranks"}, stageNames...)
	headers = append(headers, "hits", "edges", "contigs")
	t := &stats.Table{
		Title: fmt.Sprintf("Staged assembly through %s: genome %d bp, %d reads, %s (simulated)",
			p.Stages, p.GenomeLen, reads.Len(), sim.CoriKNL().Name),
		Headers: headers,
	}

	model := graph.DefaultCostModel()
	for _, nodes := range p.Nodes {
		ranks := nodes * p.RPN
		plan, err := pipeline.NewPlan(lens, ranks, pipeline.Spec{K: 15, Lo: 2, Hi: 60})
		if err != nil {
			return nil, err
		}
		plan.Stages = []pipeline.Stage{
			pipeline.DiscoverStage{},
			pipeline.AlignStage{MinScore: 100,
				Exec: core.RealExecutor{Scoring: align.DefaultScoring(), X: 20}},
		}
		plan.Stages = append(plan.Stages, graph.AssemblyStages(0, 0, 0, "bsp", &model)[:nAsm]...)

		eng, err := sim.NewEngine(sim.Config{
			Machine: sim.CoriKNL(), Nodes: nodes, RanksPerNode: p.RPN, Seed: p.Seed,
		})
		if err != nil {
			return nil, err
		}
		runs, err := plan.RunOn(eng, func(r rt.Runtime) seq.Store {
			lo, hi := plan.Part.Range(r.Rank())
			return seq.ScopeCounting(reads, lo, hi, lens, &r.Metrics().OOPGets)
		}, nil)
		if err != nil {
			return nil, fmt.Errorf("expt: assembly nodes=%d: %w", nodes, err)
		}

		// Outs is index-aligned with the stage list: align at 1, the last
		// graph-shaped output (the reduced graph when reduce ran) at gi.
		gi := -1
		switch {
		case nAsm >= 2:
			gi = 3
		case nAsm == 1:
			gi = 2
		}
		var hits, edges, contigs int
		stageMax := make([]float64, len(stageNames))
		for rk := 0; rk < ranks; rk++ {
			for si, row := range runs[rk].Rows {
				if row.ElapsedSec > stageMax[si] {
					stageMax[si] = row.ElapsedSec
				}
			}
			hits += len(runs[rk].Outs[1].(*core.Result).Hits)
			if gi >= 0 {
				edges += runs[rk].Outs[gi].(*graph.Graph).NumEdges
			}
			if nAsm == 3 {
				contigs += len(runs[rk].Outs[4].([]graph.Contig))
			}
		}
		row := []string{fmt.Sprint(nodes), fmt.Sprint(ranks)}
		for _, s := range stageMax {
			row = append(row, stats.FmtDur(time.Duration(s*float64(time.Second))))
		}
		row = append(row, fmt.Sprint(hits), fmt.Sprint(edges), fmt.Sprint(contigs))
		t.AddRow(row...)
	}
	return t, nil
}
