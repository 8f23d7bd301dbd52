// Plan splits the pipeline's one-shot, per-job setup from its per-rank
// SPMD execution, so a resident world can be re-entered job after job: a
// Plan is built once per job on the submitting goroutine (partition layout,
// reliable-frequency window resolution — pure functions of the job's
// metadata), then every rank runs Plan.Run (pipeline.go) concurrently with
// nothing but its own store. cmd/dibella's batch path and internal/serve's resident
// service both build their stage-1/2 runs from the same Plan.
package pipeline

import (
	"fmt"

	"gnbody/internal/kmer"
	"gnbody/internal/partition"
	"gnbody/internal/rt"
)

// Spec is the job-level parameterisation of stages 1-2: the k-mer length
// and the reliable-frequency window, either explicit or derived from the
// BELLA coverage model.
type Spec struct {
	K int

	// Explicit window bounds. Hi <= 0 selects the BELLA model window from
	// Coverage/ErrRate; an explicit Lo then still overrides the model's
	// lower bound (matching cmd/dibella's historical flag semantics).
	Lo, Hi int

	// Coverage/ErrRate feed kmer.ReliableWindow when Hi is not explicit.
	Coverage, ErrRate float64
}

// Window resolves the reliable-frequency window the spec describes.
func (s Spec) Window() (lo, hi int) {
	lo, hi = s.Lo, s.Hi
	if hi <= 0 {
		lo, hi = kmer.ReliableWindow(s.Coverage, s.ErrRate, s.K, 0)
		if s.Lo > 0 {
			lo = s.Lo
		}
	}
	return lo, hi
}

// Plan is the one-shot product of a job's setup: the partition over the
// job's reads and the resolved discovery parameters. It is immutable after
// NewPlan and may be shared by every rank of the run.
type Plan struct {
	Part *partition.Partition
	Lens []int32
	K    int
	Lo   int
	Hi   int

	// Stages is the ordered stage list RunStages executes — the pipeline
	// is a DAG chain, not a hardwired overlap run. Callers append stages
	// after NewPlan; [DiscoverStage, AlignStage] is the overlap pipeline.
	Stages []Stage

	// OnStage, when set, runs on every rank after each successful stage
	// and its abort agreement (chaos injection, progress logging).
	OnStage func(r rt.Runtime, stage string, out any)
}

// NewPlan partitions the job's reads across ranks by size and resolves the
// spec's window — everything stage 1-2 needs besides the per-rank stores.
func NewPlan(lens []int32, ranks int, s Spec) (*Plan, error) {
	if s.K <= 0 || s.K > kmer.MaxK {
		return nil, fmt.Errorf("pipeline: k=%d out of range", s.K)
	}
	lensInt := make([]int, len(lens))
	for i, l := range lens {
		lensInt[i] = int(l)
	}
	pt, err := partition.BySize(lensInt, ranks)
	if err != nil {
		return nil, err
	}
	lo, hi := s.Window()
	return &Plan{Part: pt, Lens: lens, K: s.K, Lo: lo, Hi: hi}, nil
}
