package main

import (
	"fmt"

	"gnbody/internal/align"
	"gnbody/internal/core"
	"gnbody/internal/overlap"
	"gnbody/internal/par"
	"gnbody/internal/pipeline"
)

// overlap-noisy: the paper's single-node case (Fig 3). Candidate discovery
// and X-drop alignment of CLR-like reads on the shared-memory backend, BSP
// driver. K-mer scan and exchange, candidate generation, the SWAR kernel
// and the batcher do nearly all the work; the read exchange is a few
// percent.
const (
	overlapK        = 17
	overlapX        = 15
	overlapMinScore = 100
	overlapCoverage = 12
	overlapErrRate  = 0.15
)

func overlapSpec(short bool) readSpec {
	sp := readSpec{GenomeLen: 30000, Coverage: overlapCoverage, MedianLen: 4000, Sigma: 0.35, ErrRate: overlapErrRate}
	if short {
		sp.GenomeLen = 8000
		sp.MedianLen = 1500
	}
	return sp
}

func runOverlapNoisy(e *env) error {
	_, reads := sampleReads(e.seed, overlapSpec(e.short))
	fasta := e.dir + "/reads.fa"
	if err := writeFASTA(fasta, reads); err != nil {
		return err
	}
	spec := pipeline.Spec{K: overlapK, Coverage: overlapCoverage, ErrRate: overlapErrRate}
	stages := []pipeline.Stage{
		pipeline.DiscoverStage{},
		pipeline.AlignStage{Mode: "bsp", MinScore: overlapMinScore, X: overlapX},
	}

	// Serial reference, once, before anything is timed.
	tasks, _, _, err := overlap.FromReadSet(reads, overlap.Config{K: overlapK, Coverage: overlapCoverage, ErrRate: overlapErrRate})
	if err != nil {
		return err
	}
	ref, err := core.SerialHits(reads, tasks, align.DefaultScoring(), overlapX, overlapMinScore)
	if err != nil {
		return err
	}
	want := hitsDigest(ref)
	fmt.Fprintf(e.report, "  input: %d reads, %d bases, %d tasks, %d reference hits\n",
		reads.Len(), reads.TotalBases(), len(tasks), len(ref))

	open := func() (*batch, error) {
		plan, stores, err := loadStores(fasta, spec)
		if err != nil {
			return nil, err
		}
		plan.Stages = stages
		w, err := par.NewWorld(par.Config{P: ranks})
		if err != nil {
			return nil, err
		}
		return &batch{e: e, w: w, plan: plan, stores: stores,
			check: func(runs []*pipeline.StageRun) error {
				if got := hitsDigest(stageHits(runs, 1)); got != want {
					return fmt.Errorf("hit digest %x differs from the serial reference %x", got[:6], want[:6])
				}
				return nil
			}}, nil
	}
	if _, err := runBatch(e, 20, open); err != nil {
		return err
	}
	if e.trace {
		e.set("overlap.tasks", float64(len(tasks)))
		if err := probeReads(e, fasta, reads, spec, true); err != nil {
			return err
		}
		return probeLayers(e)
	}
	return nil
}
