package core

import (
	"time"

	"gnbody/internal/align"
	"gnbody/internal/overlap"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
)

// Executor runs (or prices) one alignment task. The drivers are agnostic:
// the real executor times the actual X-drop kernel; the model executor
// charges the simulator's cost model; the no-op executor skips computation
// entirely (the paper's communication-benchmarking mode, §4.3).
type Executor interface {
	// Align processes task t given the two sequences (b may be the
	// remotely-fetched copy; either may be nil under the phantom codec).
	// ok reports whether a result was produced.
	Align(r rt.Runtime, t overlap.Task, a, b seq.Seq) (res align.Result, ok bool)
}

// RealExecutor runs the X-drop seed-and-extend kernel under wall-clock
// timing (rt.CatAlign). Its per-rank scratch is an alignment workspace: a
// Run binds an unbound RealExecutor to the workspace of its runScratch, so
// a resident world's Runs align on warm DP rows. A bound copy belongs to
// one rank: the progress contract runs all of a rank's tasks on its own
// goroutine, so the workspace needs no synchronisation, but it must never
// reach another rank.
type RealExecutor struct {
	Scoring align.Scoring
	X       int

	call *alignCall // per-rank scratch; nil until bound
}

// alignCall is one rank's alignment scratch: the workspace, a task's inputs
// and outputs, and the function Align times over them, built once per rank
// as readDecoder's is, so a task allocates no closure and moves nothing to
// the heap. A rank's tasks never nest, so one is enough.
type alignCall struct {
	ws   *align.Workspace
	t    overlap.Task
	a, b seq.Seq
	res  align.Result
	err  error
	fn   func()
}

// bind returns a copy of e bound to ws, which it runs every task on.
func (e RealExecutor) bind(ws *align.Workspace) RealExecutor {
	c := &alignCall{ws: ws}
	sc, x := e.Scoring, e.X
	c.fn = func() { c.res, c.err = overlap.AlignTaskWS(c.ws, c.a, c.b, c.t, sc, x) }
	e.call = c
	return e
}

// Align runs the kernel. Seeds are validated at candidate construction, so
// a kernel error here is a programming error and panics.
func (e RealExecutor) Align(r rt.Runtime, t overlap.Task, a, b seq.Seq) (align.Result, bool) {
	c := e.call
	if c == nil {
		c = e.bind(align.NewWorkspace()).call
	}
	c.t, c.a, c.b = t, a, b
	r.Timed(rt.CatAlign, c.fn)
	c.a, c.b = nil, nil
	if c.err != nil {
		// Invariant: a rank aligns only its own Input's tasks, and a peer's
		// reads passed readDecoder's length check.
		panic("core: invalid task reached the aligner: " + c.err.Error())
	}
	// Drain the workspace's kernel counters into the rank's metrics. The
	// field names predate the single row kernel (see rt.Metrics): a task
	// counts under SWARTasks when every extension ran on the row kernel,
	// under FallbackTasks when any reached the int reference.
	ks := c.ws.TakeStats()
	m := r.Metrics()
	if ks.RefExts > 0 {
		m.FallbackTasks++
	} else if ks.RowExts > 0 {
		m.SWARTasks++
	}
	m.LaneCells += ks.Cells
	m.LaneSlots += ks.Cells
	return c.res, true
}

// TaskMeta gives the model executor what it needs to price and score a
// task without sequences: the true overlap length (0 for a false-positive
// candidate). Workload generators provide it from planted ground truth.
type TaskMeta func(t overlap.Task) (overlapLen int, falsePositive bool)

// ModelExecutor prices tasks with align.CostModel and synthesises scores
// from ground truth (score = true overlap length; false positives score 0,
// mirroring X-drop early termination). Deterministic, so BSP and Async
// produce identical hits in simulation too.
type ModelExecutor struct {
	Model    align.CostModel
	Meta     TaskMeta
	Overhead time.Duration // per-task data-structure traversal cost (Figure 13)
}

// Align charges the modeled cost and returns the synthetic result.
func (e ModelExecutor) Align(r rt.Runtime, t overlap.Task, _, _ seq.Seq) (align.Result, bool) {
	ov, fp := e.Meta(t)
	if e.Overhead > 0 {
		r.Charge(rt.CatOverhead, e.Overhead)
	}
	r.Charge(rt.CatAlign, e.Model.TaskCost(ov))
	score := ov
	if fp {
		score = 0
	}
	return align.Result{Score: score}, true
}

// NoopExecutor skips the pairwise alignment computation but leaves every
// other step intact — the mode the paper added to both codes to measure
// absolute communication latency (§4.3).
type NoopExecutor struct{}

// Align does nothing.
func (NoopExecutor) Align(rt.Runtime, overlap.Task, seq.Seq, seq.Seq) (align.Result, bool) {
	return align.Result{}, false
}
