// The stage abstraction generalises the pipeline from "one overlap run"
// into an ordered list of SPMD passes: candidate discovery, exchange-and-
// align, and — in internal/graph — string-graph construction, transitive
// reduction and contig generation. Every stage runs inside one collective
// region on every rank, receives the runtime, the plan, the rank's
// owner-only store and the previous stage's distributed (per-rank) output,
// and hands its own per-rank output to the next stage. RunStages threads
// per-stage metric deltas (trace.StageRow) through rt.Metrics snapshots
// and performs the abort agreement after every stage, so one rank's
// failure never strands its peers in the next stage's first collective.
package pipeline

import (
	"errors"
	"fmt"

	"gnbody/internal/align"
	"gnbody/internal/core"
	"gnbody/internal/overlap"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
	"gnbody/internal/trace"
)

// Stage is one SPMD pass of the assembly pipeline. Run is collective: all
// ranks enter it together (RunStages enforces this with an agreement
// collective between stages). prev is the previous stage's output on this
// rank — distributed state, not a gathered global view — and nil for the
// first stage, where callers may instead seed an initial value through
// RunStages.
type Stage interface {
	// Name labels the stage in errors, metrics rows and -stages selection.
	Name() string
	// Run executes this rank's share of the stage.
	Run(r rt.Runtime, pl *Plan, store seq.Store, prev any) (any, error)
}

// StageError reports which stage failed on which rank. Ranks whose own
// stage succeeded but whose peers failed carry Err == nil and report the
// abort; the instigating rank wraps its root cause.
type StageError struct {
	Stage string
	Rank  int
	Err   error
}

// Error names the stage; peers that merely agreed to abort say so.
func (e *StageError) Error() string {
	if e.Err == nil {
		return fmt.Sprintf("pipeline: stage %s aborted by a peer of rank %d", e.Stage, e.Rank)
	}
	return fmt.Sprintf("pipeline: stage %s rank %d: %v", e.Stage, e.Rank, e.Err)
}

// Unwrap exposes the root cause for errors.Is/As.
func (e *StageError) Unwrap() error { return e.Err }

// StageRun is one rank's record of a RunStages invocation: the final
// stage's output, every intermediate output (index-aligned with the stage
// list), and one stage-tagged metrics row per stage — the delta of this
// rank's rt.Metrics across the stage, with ElapsedSec the sum of the four
// category times (a per-stage wall clock is not observable mid-region on
// the virtual-time backend).
type StageRun struct {
	Out  any
	Outs []any
	Rows []trace.StageRow
}

// RunStages executes pl.Stages in order on this rank. initial seeds the
// first stage's prev (nil when the first stage needs no input, e.g. a
// discovery stage). After every stage the ranks agree on success with an
// Allreduce; any failure turns into a *StageError on every rank, keeping
// the region collectively consistent. pl.OnStage, when set, runs on every
// rank after each successful stage and its agreement — the hook point for
// chaos injection and progress logging.
func (pl *Plan) RunStages(r rt.Runtime, store seq.Store, initial any) (*StageRun, error) {
	if len(pl.Stages) == 0 {
		return nil, fmt.Errorf("pipeline: plan has no stages")
	}
	run := &StageRun{Outs: make([]any, 0, len(pl.Stages)), Rows: make([]trace.StageRow, 0, len(pl.Stages))}
	prev := initial
	for _, st := range pl.Stages {
		before := r.Metrics().Snapshot()
		out, err := st.Run(r, pl, store, prev)
		if bad := r.Allreduce(boolI64(err != nil), rt.OpSum); bad > 0 {
			return nil, &StageError{Stage: st.Name(), Rank: r.Rank(), Err: err}
		}
		diff := rt.Sub(r.Metrics().Snapshot(), before)
		diff.Elapsed = diff.Time[rt.CatAlign] + diff.Time[rt.CatOverhead] +
			diff.Time[rt.CatComm] + diff.Time[rt.CatSync]
		run.Rows = append(run.Rows, trace.StageRow{
			Stage: st.Name(), RankMetrics: rt.TraceRow(r.Rank(), &diff, nil)})
		run.Outs = append(run.Outs, out)
		run.Out = out
		if pl.OnStage != nil {
			pl.OnStage(r, st.Name(), out)
		}
		prev = out
	}
	return run, nil
}

// World is what the launcher needs of a backend: enter the SPMD region on
// every rank this process hosts — a dist.World (par's in-process world is
// one), sim.Engine, or a single dist.Rank of a multi-process job.
type World interface {
	Run(func(rt.Runtime)) error
}

// RunOn launches the plan on world as one collective region: every rank
// runs the stage list over its owner-only store from storeFor and then, if
// every stage succeeded, after (the place for result gathers; may be nil).
// It returns the per-rank records indexed by rank — nil for ranks hosted by
// another process and for ranks whose stages failed — and one folded error:
// the world's own error, else the first *StageError carrying a root cause
// (the instigating rank, preferred over peers that merely agreed to abort),
// else the first abort, else the first error from after.
func (pl *Plan) RunOn(world World, storeFor func(rt.Runtime) seq.Store,
	after func(rt.Runtime, *StageRun) error) ([]*StageRun, error) {
	runs := make([]*StageRun, pl.Part.P)
	errs := make([]error, pl.Part.P)
	if err := world.Run(func(r rt.Runtime) {
		rk := r.Rank()
		runs[rk], errs[rk] = pl.RunStages(r, storeFor(r), nil)
		if errs[rk] == nil && after != nil {
			errs[rk] = after(r, runs[rk])
		}
	}); err != nil {
		return runs, err
	}
	var abort, late error
	for rk, err := range errs {
		if err == nil {
			continue
		}
		if runs[rk] != nil { // the stages ran: this is after's error
			if late == nil {
				late = err
			}
			continue
		}
		var se *StageError
		if errors.As(err, &se) && se.Err != nil {
			return runs, fmt.Errorf("rank %d: %w", rk, err)
		}
		if abort == nil {
			abort = fmt.Errorf("rank %d: %w", rk, err)
		}
	}
	if abort != nil {
		return runs, abort
	}
	return runs, late
}

func boolI64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// DiscoverStage runs stages 1-2 (k-mer histogram, reliable-window filter,
// candidate generation, owner redistribution) under the plan. Output:
// *Output — this rank's share of the discovered tasks.
type DiscoverStage struct{}

// Name is the stage's -stages/metrics label.
func (DiscoverStage) Name() string { return "discover" }

// Run executes this rank's discovery share; prev is ignored.
func (DiscoverStage) Run(r rt.Runtime, pl *Plan, store seq.Store, _ any) (any, error) {
	return pl.Run(r, store)
}

// AlignStage is the exchange-and-align phase under one of the paper's
// coordination strategies. Input: *Output (from DiscoverStage) or a plain
// []overlap.Task (tasks discovered outside the region, e.g. the serial
// reference path). Output: *core.Result with this rank's hits and driver
// counters.
type AlignStage struct {
	Mode     string // "bsp" (default) or "async"
	MinScore int
	X        int

	// Exec overrides the executor (default: RealExecutor with the default
	// scoring and X).
	Exec core.Executor
}

// Name is the stage's -stages/metrics label.
func (AlignStage) Name() string { return "align" }

// Run executes this rank's align share.
func (s AlignStage) Run(r rt.Runtime, pl *Plan, store seq.Store, prev any) (any, error) {
	var tasks []overlap.Task
	switch p := prev.(type) {
	case *Output:
		tasks = p.Tasks
	case []overlap.Task:
		tasks = p
	default:
		return nil, fmt.Errorf("align stage wants *pipeline.Output or []overlap.Task, got %T", prev)
	}
	exec := s.Exec
	if exec == nil {
		exec = core.RealExecutor{Scoring: align.DefaultScoring(), X: s.X}
	}
	in := &core.Input{Part: pl.Part, Lens: pl.Lens, Tasks: tasks, Codec: core.RealCodec{Store: store}, Store: store}
	cfg := core.Config{Exec: exec, MinScore: s.MinScore}
	return core.Run(s.Mode, r, in, cfg)
}
