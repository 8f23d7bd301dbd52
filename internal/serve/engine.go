package serve

import (
	"fmt"
	"time"

	"gnbody/internal/core"
	"gnbody/internal/dist"
	"gnbody/internal/par"
	"gnbody/internal/pipeline"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
	"gnbody/internal/trace"
	"gnbody/internal/transport"
	"gnbody/internal/workload"
)

// engine is one resident world: the expensive half of a job, built once
// and re-entered job after job. Each rank's alignment workspace and
// exchange buffers are not the engine's but the drivers' pooled run
// scratch (internal/core). An engine is owned by a single pool worker
// goroutine; jobs on it are strictly serial.
type engine struct {
	backend   string // "par" or "dist"
	ranks     int
	memBudget int64
	deadline  time.Duration

	w *dist.World
}

// newEngine builds a resident world. Both backends are goroutine ranks of
// the message-passing runtime over the in-process loopback fabric: "par" is
// par's world (one node, no deadline, no chaos); "dist" runs under the
// configured progress deadline, with the full typed-failure model live,
// and a rank is killed by aborting its endpoint (kill).
func newEngine(backend string, ranks int, memBudget int64, deadline time.Duration) (*engine, error) {
	e := &engine{
		backend: backend, ranks: ranks,
		memBudget: memBudget, deadline: deadline,
	}
	if err := e.build(); err != nil {
		return nil, err
	}
	return e, nil
}

// build constructs the world (initial build and post-failure rebuild).
func (e *engine) build() error {
	switch e.backend {
	case "par":
		w, err := par.NewWorld(par.Config{P: e.ranks, MemBudget: e.memBudget})
		e.w = w
		return err
	case "dist":
		pd := e.deadline
		if pd == 0 {
			pd = -1 // serve default is "no deadline" unless configured
		}
		w, err := dist.NewWorldOver(transport.NewLoopback(e.ranks), dist.Config{
			MemBudget: e.memBudget, ProgressDeadline: pd})
		e.w = w
		return err
	default:
		return fmt.Errorf("serve: unknown backend %q (want par or dist)", e.backend)
	}
}

// rebuild replaces a failed world. A rank's failure is sticky (the world
// is poisoned once any rank raised), so retrying a job means a fresh
// fabric; the drivers' pooled scratch, workspaces included, is not the
// world's and carries over.
func (e *engine) rebuild() error {
	e.close() // best-effort; the failed world is already dead
	return e.build()
}

// kill makes rank i's endpoint go dark, as if its process took a SIGKILL
// mid-collective: the rank's next Send or Recv fails, so it unwinds with a
// *dist.RankError naming itself, and peers blocked on it fail via the
// progress deadline. Safe from any goroutine; a parked rank is woken.
func (e *engine) kill(i int) { e.w.Rank(i).Transport().Abort() }

func (e *engine) close() {
	if e.w != nil {
		e.w.Close()
	}
}

// run executes one job on the resident world: a single collective region
// covering stages 1-2 (discovery), the align phase under the job's mode,
// and the hit gather to rank 0 — expressed as the plan's stage list
// [discover, align] launched through pipeline's Plan.RunOn, the same
// path the batch CLI uses for every stage chain. kill >= 0 arms the chaos
// hook: the OnStage callback kills that rank's endpoint right after the
// discover stage and its agreement, so the align phase's first collective
// fails and the caller sees a typed *dist.RankError naming the victim.
// Per-job metrics come from snapshot-before / subtract-after around the
// region.
//
// Job isolation: everything per-job — stores, partition, tasks, caches —
// is built inside the region from the job's own read set; only the world
// itself and the drivers' pooled scratch (plain buffers, owned by one rank
// for the length of a Run) carry over between jobs.
func (e *engine) run(j *Job, kill int) (hits []core.Hit, tasks int64, rows []trace.JobRow, err error) {
	lens := workload.LensOf(j.reads)
	plan, err := pipeline.NewPlan(lens, e.ranks, j.Spec.Discovery())
	if err != nil {
		return nil, 0, nil, err
	}
	plan.Stages = []pipeline.Stage{pipeline.DiscoverStage{}, j.Spec.AlignStage()}
	plan.OnStage = func(r rt.Runtime, stage string, _ any) {
		if stage == "discover" && r.Rank() == kill {
			e.kill(kill) // the align phase's first collective now fails
		}
	}
	before := make([]rt.Metrics, e.ranks)
	for i := range before {
		before[i] = e.w.Metrics(i).Snapshot()
	}
	var gathered []core.Hit
	runs, err := plan.RunOn(e.w,
		func(r rt.Runtime) seq.Store {
			lo, hi := plan.Part.Range(r.Rank())
			return seq.ScopeCounting(j.reads, lo, hi, lens, &r.Metrics().OOPGets)
		},
		func(r rt.Runtime, run *pipeline.StageRun) error {
			g, err := core.GatherHits(r, run.Out.(*core.Result).Hits)
			if r.Rank() == 0 {
				gathered = g
			}
			return err
		})
	if err != nil {
		return nil, 0, nil, fmt.Errorf("serve: job %s: %w", j.ID, err)
	}
	for _, run := range runs {
		tasks += int64(len(run.Outs[0].(*pipeline.Output).Tasks))
	}
	rows = make([]trace.JobRow, e.ranks)
	for i := range rows {
		diff := rt.Sub(e.w.Metrics(i).Snapshot(), before[i])
		rows[i] = trace.JobRow{Job: j.ID, RankMetrics: rt.TraceRow(i, &diff, nil)}
	}
	return gathered, tasks, rows, nil
}
