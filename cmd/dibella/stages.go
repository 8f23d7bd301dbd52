// Every dibella run is one stage chain under pipeline's launcher. -stages
// names the last stage; each name runs every stage up to and including
// itself and decides the artifact —
//
//	overlap  discover + align                 (hit TSV or PAF, the default)
//	graph    + string-graph construction      (edge TSV)
//	reduce   + transitive reduction           (edge TSV of the reduced graph)
//	contigs  + contig generation              (FASTA)
//
// The chain plus the gather of the artifact to rank 0 executes as one
// collective region on every backend dibella has (-procs goroutines or
// -dist processes), with per-stage metric deltas exported through
// -stage-metrics.
package main

import (
	"bufio"
	"fmt"
	"io"
	"time"

	"gnbody/internal/align"
	"gnbody/internal/core"
	"gnbody/internal/graph"
	"gnbody/internal/overlap"
	"gnbody/internal/pipeline"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
	"gnbody/internal/stats"
	"gnbody/internal/trace"
)

// stageChain is the -stages vocabulary in chain order.
var stageChain = []string{"overlap", "graph", "reduce", "contigs"}

// stageChainIndex returns how many assembly stages follow the align stage
// for a -stages value (0 for "overlap"), or -1 for an unknown name.
func stageChainIndex(name string) int {
	for i, s := range stageChain {
		if s == name {
			return i
		}
	}
	return -1
}

// artifact is what the region gathers onto rank 0 for the artifact writer.
type artifact struct {
	tasks     int64      // overlap: candidate tasks discovered, summed over ranks
	hits      []core.Hit // overlap: every rank's hits, sorted
	edges     []graph.Edge
	contained []bool
	contigs   []graph.Contig
}

// gather runs on every rank after the last stage: the gather matching the
// final stage's output (for overlap, plus the task-count reduction its
// summary line reports). Only rank 0 keeps the result.
func (a *artifact) gather(r rt.Runtime, run *pipeline.StageRun) (err error) {
	var got artifact
	switch out := run.Out.(type) {
	case *core.Result:
		got.tasks = r.Allreduce(int64(len(run.Outs[0].(*pipeline.Output).Tasks)), rt.OpSum)
		got.hits, err = core.GatherHits(r, out.Hits)
	case *graph.Graph:
		got.edges, err = graph.GatherEdges(r, out.EdgeList())
		got.contained = out.Contained
	case []graph.Contig:
		got.contigs, err = graph.GatherContigs(r, out)
	}
	if r.Rank() == 0 {
		*a = got
	}
	return err
}

// runPipeline executes the stage chain and writes the final stage's
// artifact plus the optional per-stage metrics file. Rank 0 (or the sole
// process) owns the artifact; every -dist worker writes its own
// rank-suffixed metrics slice.
func (s *session) runPipeline() error {
	// The reduce stage's neighbour fetches follow the align phase's
	// coordination strategy.
	s.plan.Stages = append([]pipeline.Stage{pipeline.DiscoverStage{}, s.job.AlignStage()},
		graph.AssemblyStages(s.slack, s.minOv, s.fuzz, s.job.Mode, nil)[:stageChainIndex(s.stages)]...)

	t0 := time.Now()
	var art artifact
	runs, err := s.plan.RunOn(s.world, s.storeFor, art.gather)
	if err != nil {
		return err
	}
	wall := time.Since(t0)

	// Stage-major rows, so one stage's ranks read as a block.
	var rows []trace.StageRow
	ranks := s.localRanks()
	for si := range s.plan.Stages {
		for _, rk := range ranks {
			rows = append(rows, runs[rk].Rows[si])
		}
	}
	if s.stageMetrics != "" {
		if err := trace.WriteMetricsFile(s.stageMetrics, s.rankSuffix(), rows, trace.WriteStageMetricsCSV, trace.WriteStageMetricsJSON); err != nil {
			return fmt.Errorf("-stage-metrics: %w", err)
		}
		s.logf("dibella: stage metrics -> %s%s\n", s.stageMetrics, s.rankSuffix())
	}
	if s.myRank != 0 {
		return nil
	}
	write := func(w io.Writer) error { return s.writeArtifact(w, &art, runs) }
	if s.outPath != "" {
		err = trace.WriteFile(s.outPath, write)
	} else {
		bw := bufio.NewWriter(s.stdout)
		if err = write(bw); err == nil {
			err = bw.Flush()
		}
	}
	if err != nil {
		return fmt.Errorf("-out: %w", err)
	}

	table := &stats.Table{
		Title: fmt.Sprintf("dibella: %s through %s, %d ranks, %s",
			s.job.Mode, s.stages, s.procs, wall.Round(time.Millisecond)),
		Headers: []string{"stage", "rank", "align", "overhead", "comm", "sync", "sent", "steps"},
	}
	if s.dist {
		table.Title += fmt.Sprintf(" (rank %d of %d processes)", s.myRank, s.procs)
	}
	for _, row := range rows {
		table.AddRow(row.Stage, fmt.Sprint(row.Rank),
			stats.FmtDur(durSec(row.AlignSec)), stats.FmtDur(durSec(row.OverheadSec)),
			stats.FmtDur(durSec(row.CommSec)), stats.FmtDur(durSec(row.SyncSec)),
			stats.FmtBytes(row.BytesSent), fmt.Sprint(row.Supersteps))
	}
	table.Render(s.stderr)
	return nil
}

// writeArtifact renders the final stage's gathered output: the hit TSV (or
// PAF) for overlap, the edge TSV for graph and reduce, the contig FASTA for
// contigs — each with its one-line summary on stderr.
func (s *session) writeArtifact(w io.Writer, art *artifact, runs []*pipeline.StageRun) error {
	switch s.stages {
	case "overlap":
		s.logf("dibella: %d candidate tasks (k=%d, reliable window [%d,%d])\n",
			art.tasks, s.plan.K, s.plan.Lo, s.plan.Hi)
		hits := art.hits
		taskOf := map[uint64]overlap.Task{}
		if s.paf {
			// PAF keeps the raw per-task records — its seed replay needs the
			// original orientation and the task's seed, which the discover
			// stage's outputs still hold in-process.
			for _, run := range runs {
				for _, t := range run.Outs[0].(*pipeline.Output).Tasks {
					taskOf[t.Key()] = t
				}
			}
		} else {
			// Canonical TSV: symmetric duplicates collapse and every record
			// reads A < B, so the emitted file is a deterministic function of
			// the hit set regardless of driver, rank count or task order.
			hits = core.CanonicalizeHits(hits, s.lens)
		}
		kinds := map[overlap.Kind]int{}
		for _, h := range hits {
			res := align.Result{Score: int(h.Score),
				AStart: int(h.AStart), AEnd: int(h.AEnd),
				BStart: int(h.BStart), BEnd: int(h.BEnd)}
			kinds[overlap.Classify(res, int(s.lens[h.A]), int(s.lens[h.B]), 50)]++
			if !s.paf {
				fmt.Fprintf(w, "%s\t%s\t%d\n", s.nameOf(h.A), s.nameOf(h.B), h.Score)
			} else if err := writePAF(w, s.reads, taskOf[uint64(h.A)<<32|uint64(h.B)], h, s.job.X); err != nil {
				return err
			}
		}
		fmt.Fprintf(s.stderr, "dibella: overlap kinds:")
		for _, k := range []overlap.Kind{overlap.SuffixPrefix, overlap.PrefixSuffix,
			overlap.ContainsB, overlap.ContainedInB, overlap.Internal} {
			fmt.Fprintf(s.stderr, " %s=%d", k, kinds[k])
		}
		fmt.Fprintln(s.stderr)
	case "graph", "reduce":
		if err := graph.WriteEdgeTSV(w, art.edges, art.contained, s.nameOf); err != nil {
			return err
		}
		contained := 0
		for _, c := range art.contained {
			if c {
				contained++
			}
		}
		s.logf("dibella: %s stage: %d edges, %d contained reads\n", s.stages, len(art.edges), contained)
	case "contigs":
		if err := graph.WriteContigFASTA(w, art.contigs); err != nil {
			return err
		}
		var bases int
		for _, ct := range art.contigs {
			bases += len(ct.Seq)
		}
		s.logf("dibella: %d contigs, %d bases\n", len(art.contigs), bases)
	}
	return nil
}

// writePAF renders one saved alignment as a PAF record (the de-facto
// interchange format for long-read overlaps), recomputing the edit
// transcript for the residue-match and cg:Z fields. Coordinates follow the
// PAF convention: for '-' strand hits, target coordinates are reported on
// the original strand.
func writePAF(w io.Writer, reads *seq.ReadSet, t overlap.Task, h core.Hit, x int) error {
	ra, rb := reads.Get(h.A), reads.Get(h.B)
	b := rb.Seq
	if h.RC {
		b = b.ReverseComplement()
	}
	_, cigar, err := align.SeedExtendTrace(ra.Seq, b, int(t.Seed.PosA), int(t.Seed.PosB),
		int(t.Seed.K), align.DefaultScoring(), x)
	if err != nil {
		return err
	}
	_, _, matches, alnLen := cigar.Counts()
	strand := "+"
	tStart, tEnd := int(h.BStart), int(h.BEnd)
	if h.RC {
		strand = "-"
		tStart, tEnd = rb.Len()-int(h.BEnd), rb.Len()-int(h.BStart)
	}
	_, err = fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t255\tAS:i:%d\tcg:Z:%s\n",
		ra.Name, ra.Len(), h.AStart, h.AEnd, strand,
		rb.Name, rb.Len(), tStart, tEnd, matches, alnLen, h.Score, cigar)
	return err
}

func durSec(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
