package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"sort"

	"gnbody/internal/core"
	"gnbody/internal/graph"
	"gnbody/internal/par"
	"gnbody/internal/pipeline"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
)

// assemble-backhalf: string graph, transitive reduction and contigs over
// real sockets in async mode — the same dist+transport engine as
// exchange-tcp, but as small-frame, round-latency-bound RPC. Discovery and
// alignment run once, untimed, on the same 2-rank partition; a rep is the
// three assembly stages fed each rank's alignment result.
const (
	backhalfX        = 20
	backhalfMinScore = 100
)

var backhalfSpec = pipeline.Spec{K: 15, Lo: 2, Hi: 40}

func backhalfReads(short bool) readSpec {
	sp := readSpec{GenomeLen: 300_000, Coverage: 8, MedianLen: 600, Sigma: 0.15, BothStrands: true}
	if short {
		sp.GenomeLen = 12_000
	}
	return sp
}

// assemblyArtifacts renders what a run of the chain produced — the reduced
// graph's edge TSV and the contig FASTA — from every rank's outputs, in
// the canonical order the gather collectives use.
func assemblyArtifacts(graphs []*graph.Graph, contigs [][]graph.Contig, name func(seq.ReadID) string) ([]byte, []graph.Contig, error) {
	var edges []graph.Edge
	var all []graph.Contig
	for rk := range graphs {
		edges = append(edges, graphs[rk].EdgeList()...)
		all = append(all, contigs[rk]...)
	}
	graph.SortEdges(edges)
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	var buf bytes.Buffer
	if err := graph.WriteEdgeTSV(&buf, edges, graphs[0].Contained, name); err != nil {
		return nil, nil, err
	}
	if err := graph.WriteContigFASTA(&buf, all); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), all, nil
}

func runAssembleBackhalf(e *env) error {
	genome, reads := sampleReads(e.seed, backhalfReads(e.short))
	fasta := e.dir + "/reads.fa"
	if err := writeFASTA(fasta, reads); err != nil {
		return err
	}
	name := func(id seq.ReadID) string { return reads.Get(id).Name }

	// Front half, once, untimed, on the timed runs' partition; each rank
	// keeps its alignment result.
	plan2, stores2, err := loadStores(fasta, backhalfSpec)
	if err != nil {
		return err
	}
	plan2.Stages = []pipeline.Stage{
		pipeline.DiscoverStage{},
		pipeline.AlignStage{Mode: "async", MinScore: backhalfMinScore, X: backhalfX},
	}
	w2, err := par.NewWorld(par.Config{P: ranks})
	if err != nil {
		return err
	}
	aligned := make([]*core.Result, ranks)
	errs := make([]error, ranks)
	w2.Run(func(r rt.Runtime) {
		run, err := plan2.RunStages(r, stores2[r.Rank()], nil)
		if err != nil {
			errs[r.Rank()] = err
			return
		}
		aligned[r.Rank()] = run.Out.(*core.Result)
	})
	var hits []core.Hit
	for rk, err := range errs {
		if err != nil {
			return fmt.Errorf("front half rank %d: %w", rk, err)
		}
		hits = append(hits, aligned[rk].Hits...)
	}

	// Reference, once, before anything is timed: the three stages on one
	// rank (the serial backend) in bsp mode over the whole hit set, its
	// graph cross-checked against the independent serial builder and its
	// contigs against the genome.
	refPlan, refStores, err := loadStoresRanks(fasta, backhalfSpec, 1)
	if err != nil {
		return err
	}
	refPlan.Stages = graph.AssemblyStages(0, 0, 0, "bsp", nil)
	w1, err := par.NewWorld(par.Config{P: 1})
	if err != nil {
		return err
	}
	var refRun *pipeline.StageRun
	var refErr error
	w1.Run(func(r rt.Runtime) { refRun, refErr = refPlan.RunStages(r, refStores[0], hits) })
	if refErr != nil {
		return fmt.Errorf("reference run: %w", refErr)
	}
	reduced := refRun.Outs[1].(*graph.Graph)
	refArt, refContigs, err := assemblyArtifacts([]*graph.Graph{reduced}, [][]graph.Contig{refRun.Out.([]graph.Contig)}, name)
	if err != nil {
		return err
	}
	want := sha256.Sum256(refArt)
	builtEdges, _ := graph.BuildLocal(append([]core.Hit(nil), hits...), refPlan.Lens, graph.BuildConfig{})
	if got := refRun.Outs[0].(*graph.Graph).EdgeList(); !slices.Equal(got, builtEdges) {
		return fmt.Errorf("reference: distributed build has %d edges, serial builder %d, or they differ", len(got), len(builtEdges))
	}
	rc := genome.ReverseComplement()
	gb, rcb := basesOf(genome), basesOf(rc)
	for i, ct := range refContigs {
		cb := basesOf(ct.Seq)
		if !bytes.Contains(gb, cb) && !bytes.Contains(rcb, cb) {
			return fmt.Errorf("reference: contig %d (%d bases) is not a substring of the genome or its reverse complement", i, len(cb))
		}
	}
	fmt.Fprintf(e.report, "  input: %d reads, %d bases, %d hits, %d reduced edges, %d contigs\n",
		reads.Len(), reads.TotalBases(), len(hits), reduced.NumEdges, len(refContigs))

	open := func() (*batch, error) {
		plan, stores, err := loadStores(fasta, backhalfSpec)
		if err != nil {
			return nil, err
		}
		plan.Stages = graph.AssemblyStages(0, 0, 0, "async", nil)
		w, err := tcpWorld()
		if err != nil {
			return nil, err
		}
		return &batch{e: e, w: w, plan: plan, stores: stores, closeWorld: func() { w.Close() },
			initial: func(rank int) any { return aligned[rank] },
			check: func(runs []*pipeline.StageRun) error {
				graphs := make([]*graph.Graph, ranks)
				contigs := make([][]graph.Contig, ranks)
				for rk, run := range runs {
					graphs[rk] = run.Outs[1].(*graph.Graph)
					contigs[rk] = run.Out.([]graph.Contig)
				}
				art, _, err := assemblyArtifacts(graphs, contigs, name)
				if err != nil {
					return err
				}
				if got := sha256.Sum256(art); got != want {
					return fmt.Errorf("edge TSV + contig FASTA digest %x differs from the reference %x", got[:6], want[:6])
				}
				return nil
			}}, nil
	}
	b, err := runBatch(e, 100, open)
	if err != nil {
		return err
	}
	defer b.close()
	if e.trace {
		e.set("graph.edges", float64(reduced.NumEdges))
		e.set("graph.contigs", float64(len(refContigs)))
		if err := probeReads(e, fasta, reads, backhalfSpec, true); err != nil {
			return err
		}
		return probeLayers(e)
	}
	return nil
}

func basesOf(s seq.Seq) []byte {
	out := make([]byte, len(s))
	for i, b := range s {
		out[i] = byte(b)
	}
	return out
}
