// Stage adapters: the assembly passes as pipeline.Stage values, so a
// Plan's stage list can read [discover, align, graph, reduce, contigs]
// and RunStages threads outputs and per-stage metrics through the whole
// chain on every backend.
package graph

import (
	"fmt"

	"gnbody/internal/core"
	"gnbody/internal/pipeline"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
)

// BuildStage classifies the align stage's hits and constructs the
// rank-partitioned string graph. Input: *core.Result (from an align
// stage) or a plain []core.Hit. Output: *Graph.
type BuildStage struct {
	Slack      int
	MinOverlap int
	Model      *CostModel
}

// Name is the stage's -stages/metrics label.
func (BuildStage) Name() string { return "graph" }

// Run executes this rank's share of graph construction.
func (s BuildStage) Run(r rt.Runtime, pl *pipeline.Plan, _ seq.Store, prev any) (any, error) {
	var hits []core.Hit
	switch p := prev.(type) {
	case *core.Result:
		hits = p.Hits
	case []core.Hit:
		hits = p
	default:
		return nil, fmt.Errorf("graph stage wants *core.Result or []core.Hit, got %T", prev)
	}
	return Build(r, pl.Part, pl.Lens, hits, BuildConfig{Slack: s.Slack, MinOverlap: s.MinOverlap, Model: s.Model})
}

// ReduceStage transitively reduces the string graph. Input: *Graph.
// Output: *Graph.
type ReduceStage struct {
	Fuzz  int
	Mode  string // neighbour fetch: "bsp" (default) or "async"
	Model *CostModel
}

// Name is the stage's -stages/metrics label.
func (ReduceStage) Name() string { return "reduce" }

// Run executes this rank's share of the reduction.
func (s ReduceStage) Run(r rt.Runtime, _ *pipeline.Plan, _ seq.Store, prev any) (any, error) {
	g, ok := prev.(*Graph)
	if !ok {
		return nil, fmt.Errorf("reduce stage wants *graph.Graph, got %T", prev)
	}
	return Reduce(r, g, ReduceConfig{Fuzz: s.Fuzz, Mode: s.Mode, Model: s.Model})
}

// ContigStage walks the reduced graph into contigs. Input: *Graph.
// Output: []Contig — this rank's contigs; GatherContigs collects them.
type ContigStage struct {
	MinReads int
	Model    *CostModel
}

// Name is the stage's -stages/metrics label.
func (ContigStage) Name() string { return "contigs" }

// Run executes this rank's share of the walk. Contig bases come from the
// rank's owner-only store (plus one batched fetch of remote suffixes), so
// the stage needs real sequences — the phantom codec's metadata-only runs stop
// after reduce.
func (s ContigStage) Run(r rt.Runtime, _ *pipeline.Plan, store seq.Store, prev any) (any, error) {
	g, ok := prev.(*Graph)
	if !ok {
		return nil, fmt.Errorf("contig stage wants *graph.Graph, got %T", prev)
	}
	return Contigs(r, g, store, ContigConfig{MinReads: s.MinReads, Model: s.Model})
}

// AssemblyStages is the canonical full chain after discovery/alignment:
// graph construction, transitive reduction, contig generation — the
// -stages flag's named prefixes map onto truncations of this list. mode is
// the reduce stage's neighbour-fetch strategy; the other two stages have
// one algorithm each.
func AssemblyStages(slack, minOverlap, fuzz int, mode string, model *CostModel) []pipeline.Stage {
	return []pipeline.Stage{
		BuildStage{Slack: slack, MinOverlap: minOverlap, Model: model},
		ReduceStage{Fuzz: fuzz, Mode: mode, Model: model},
		ContigStage{Model: model},
	}
}
