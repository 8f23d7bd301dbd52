package core

import (
	"gnbody/internal/align"
	"gnbody/internal/overlap"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
)

// Resident is the one-shot half of a multi-job world: the per-rank state
// that is expensive to build and safe to reuse across jobs. Today that is
// the alignment workspaces — the DP rows grow to the longest extension
// ever seen and then serve every later job allocation-free. Read caches
// are deliberately NOT resident across jobs: ReadIDs are job-local, so a
// cache surviving into the next job would serve the wrong bases.
//
// Binding discipline: Bind(rank, ...) hands out an executor wired to that
// rank's workspace. Jobs on a world run serially (the serve scheduler
// guarantees it), and within a run each rank's goroutine is the only user
// of its workspace, so no synchronisation is needed — the same contract as
// PerRankExecutor, extended across Runs.
type Resident struct {
	ws []*align.Workspace
}

// NewResident builds warm per-rank state for a world of p ranks.
func NewResident(p int) *Resident {
	r := &Resident{ws: make([]*align.Workspace, p)}
	for i := range r.ws {
		r.ws[i] = align.NewWorkspace()
	}
	return r
}

// Ranks returns the number of ranks the resident state covers.
func (res *Resident) Ranks() int { return len(res.ws) }

// Bind returns exec bound to rank's resident workspace when exec supports
// residency (RealExecutor does); other executors pass through unchanged.
// The returned executor is NOT a PerRankExecutor, so Config.defaults()
// will not re-bind it to a fresh workspace — that is the point.
func (res *Resident) Bind(rank int, exec Executor) Executor {
	if re, ok := exec.(ResidentExecutor); ok {
		return re.WithWorkspace(res.ws[rank])
	}
	return exec
}

// ResidentExecutor is implemented by executors whose per-rank state can be
// supplied from outside instead of freshly built per Run — the hook that
// lets a resident world keep its workspaces warm across jobs.
type ResidentExecutor interface {
	Executor
	// WithWorkspace returns a copy of the executor using ws for its
	// per-rank scratch. The result must not implement PerRankExecutor
	// (Config.defaults() would re-bind it and defeat the reuse).
	WithWorkspace(ws *align.Workspace) Executor
}

// WithWorkspace binds the executor to an externally-owned workspace.
func (e RealExecutor) WithWorkspace(ws *align.Workspace) Executor {
	return boundExecutor{e.bind(ws)}
}

// boundExecutor hides RealExecutor's ForRank so a resident binding is
// final: drivers see a plain Executor and route every task through the
// already-warm workspace.
type boundExecutor struct{ e RealExecutor }

func (b boundExecutor) Align(r rt.Runtime, t overlap.Task, a, bs seq.Seq) (align.Result, bool) {
	return b.e.Align(r, t, a, bs)
}
