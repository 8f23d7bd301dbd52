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

// The assembly experiment's input: a synthetic genome of asmGenome bp
// sampled at asmCoverage depth.
const (
	asmGenome   = 30000
	asmCoverage = 8
)

// Assembly measures the staged pipeline — discovery, alignment, string
// graph, transitive reduction, contigs — on the simulated Cori platform
// across node counts. Alignment runs the real X-drop kernel on error-free
// sampled reads (the graph needs true extents), so its column prices only
// the exchange; the assembly stages are priced by graph.DefaultCostModel.
// Per-stage columns are the max simulated time over ranks; the edge and
// contig counts double as a cross-node-count invariant — the graph is a
// pure function of the hit set, so they must not change with scale.
func Assembly(p Params) (Result, error) {
	p = p.defaults()
	g := genome.Generate(genome.Config{Length: asmGenome, Seed: p.Seed})
	smp, err := genome.NewSampler(g, genome.ReadConfig{
		Coverage: asmCoverage, MeanLen: 600, SigmaLog: 0.15,
		BothStrands: true, Seed: p.Seed + 1,
	})
	if err != nil {
		return Result{}, err
	}
	reads, _ := smp.Sample()
	lens := workload.LensOf(reads)

	t := &stats.Table{
		Title: fmt.Sprintf("Staged assembly through contigs: genome %d bp, %d reads, %s (simulated)",
			asmGenome, reads.Len(), sim.CoriKNL().Name),
		Headers: []string{"nodes", "ranks", "discover", "align", "graph", "reduce", "contigs",
			"hits", "edges", "contigs"},
	}
	model := graph.DefaultCostModel()
	for _, nodes := range p.nodesOr([]int{1, 2, 4}) {
		ranks := nodes * p.RanksPerNode
		plan, err := pipeline.NewPlan(lens, ranks, pipeline.Spec{K: 15, Lo: 2, Hi: 60})
		if err != nil {
			return Result{}, err
		}
		plan.Stages = append([]pipeline.Stage{
			pipeline.DiscoverStage{},
			pipeline.AlignStage{MinScore: 100,
				Exec: core.RealExecutor{Scoring: align.DefaultScoring(), X: 20}},
		}, graph.AssemblyStages(0, 0, 0, "bsp", &model)...)

		eng, err := sim.NewEngine(sim.Config{
			Machine: sim.CoriKNL(), Nodes: nodes, RanksPerNode: p.RanksPerNode, Seed: p.Seed,
		})
		if err != nil {
			return Result{}, err
		}
		runs, err := plan.RunOn(eng, func(r rt.Runtime) seq.Store {
			lo, hi := plan.Part.Range(r.Rank())
			return seq.ScopeCounting(reads, lo, hi, lens, &r.Metrics().OOPGets)
		}, nil)
		if err != nil {
			return Result{}, fmt.Errorf("expt: assembly nodes=%d: %w", nodes, err)
		}

		// Outs is index-aligned with the stage list: the alignment result
		// at 1, the reduced graph at 3, the contigs at 4.
		var hits, edges, contigs int
		stageMax := make([]float64, len(plan.Stages))
		for rk := 0; rk < ranks; rk++ {
			for si, row := range runs[rk].Rows {
				stageMax[si] = max(stageMax[si], row.ElapsedSec)
			}
			hits += len(runs[rk].Outs[1].(*core.Result).Hits)
			edges += runs[rk].Outs[3].(*graph.Graph).NumEdges
			contigs += len(runs[rk].Outs[4].([]graph.Contig))
		}
		row := []string{fmt.Sprint(nodes), fmt.Sprint(ranks)}
		for _, s := range stageMax {
			row = append(row, stats.FmtDur(time.Duration(s*float64(time.Second))))
		}
		row = append(row, fmt.Sprint(hits), fmt.Sprint(edges), fmt.Sprint(contigs))
		t.AddRow(row...)
	}
	return Result{Tables: []*stats.Table{t}}, nil
}
