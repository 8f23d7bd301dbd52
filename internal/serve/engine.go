package serve

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"gnbody/internal/align"
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

// errChaosKill is what a killed rank's endpoint returns: an abrupt local
// death, as if the owning process took a SIGKILL mid-collective.
var errChaosKill = errors.New("serve: chaos-killed endpoint")

// killableTP wraps one rank's loopback endpoint with a kill switch that
// any goroutine may flip mid-run. Once dead, every Send/Recv fails — the
// owning rank unwinds with a *dist.RankError naming itself, and peers
// blocked on it fail via the progress deadline. The loopback fabric has no
// Abort (in-process queues cannot crash), so the service grows its own
// fault surface here rather than in the transport.
type killableTP struct {
	*transport.Loopback
	dead atomic.Bool
}

// Kill flips the endpoint dead and wakes its owner, should it be parked on
// an empty inbox, to find out. Safe from any goroutine; idempotent.
func (k *killableTP) Kill() {
	k.dead.Store(true)
	k.Wake()
}

func (k *killableTP) Send(dst int, frame []byte) error { return k.SendV(dst, frame, nil) }

func (k *killableTP) SendV(dst int, hdr, body []byte) error {
	if k.dead.Load() {
		return errChaosKill
	}
	return k.Loopback.SendV(dst, hdr, body)
}

func (k *killableTP) Recv() (int, []byte, bool, error) {
	if k.dead.Load() {
		return 0, nil, false, errChaosKill
	}
	return k.Loopback.Recv()
}

// engine is one resident world and its reusable per-rank state: the
// expensive half of a job (world construction, workspace warm-up) built
// once and re-entered job after job. An engine is owned by a single pool
// worker goroutine; jobs on it are strictly serial.
type engine struct {
	backend   string // "par" or "dist"
	ranks     int
	memBudget int64
	deadline  time.Duration

	// ws is each rank's alignment workspace. It survives world rebuilds
	// (workspaces are plain memory) and serves job after job: the DP rows
	// grow to the longest extension seen and then run allocation-free.
	// Read caches are not kept: ReadIDs are job-local.
	ws []*align.Workspace

	w    *dist.World
	taps []*killableTP // dist only: per-rank kill switches
}

// newEngine builds a resident world. Both backends are goroutine ranks of
// the message-passing runtime over the in-process loopback fabric: "par" is
// par's world (one node, no deadline, no chaos); "dist" wraps every
// endpoint with a kill switch and runs under the configured progress
// deadline, with the full typed-failure model live.
func newEngine(backend string, ranks int, memBudget int64, deadline time.Duration) (*engine, error) {
	e := &engine{
		backend: backend, ranks: ranks,
		memBudget: memBudget, deadline: deadline,
		ws: make([]*align.Workspace, ranks),
	}
	for i := range e.ws {
		e.ws[i] = align.NewWorkspace()
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
		e.taps = make([]*killableTP, e.ranks)
		fabric := make([]transport.Transport, e.ranks)
		for i, ep := range transport.NewLoopback(e.ranks) {
			e.taps[i] = &killableTP{Loopback: ep.(*transport.Loopback)}
			fabric[i] = e.taps[i]
		}
		pd := e.deadline
		if pd == 0 {
			pd = -1 // serve default is "no deadline" unless configured
		}
		w, err := dist.NewWorldOver(fabric, dist.Config{
			MemBudget: e.memBudget, ProgressDeadline: pd})
		e.w = w
		return err
	default:
		return fmt.Errorf("serve: unknown backend %q (want par or dist)", e.backend)
	}
}

// rebuild replaces a failed world. A rank's failure is sticky (the world
// is poisoned once any rank raised), so retrying a job means a fresh
// fabric — but the resident workspaces carry over: rebuild only re-creates
// the cheap queues, not the warm DP state.
func (e *engine) rebuild() error {
	e.close() // best-effort; the failed world is already dead
	return e.build()
}

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
// is built inside the region from the job's own read set; only the
// alignment workspaces (resident, rank-private) and the world itself carry
// over between jobs.
func (e *engine) run(j *Job, kill int) (hits []core.Hit, tasks int64, rows []trace.JobRow, err error) {
	lens := workload.LensOf(j.reads)
	plan, err := pipeline.NewPlan(lens, e.ranks, j.Spec.Discovery())
	if err != nil {
		return nil, 0, nil, err
	}
	exec := core.RealExecutor{Scoring: align.DefaultScoring(), X: j.Spec.X}
	alignStage := j.Spec.AlignStage()
	alignStage.ExecFor = func(rank int) core.Executor { return exec.WithWorkspace(e.ws[rank]) }
	plan.Stages = []pipeline.Stage{pipeline.DiscoverStage{}, alignStage}
	plan.OnStage = func(r rt.Runtime, stage string, _ any) {
		if stage == "discover" && r.Rank() == kill {
			e.taps[kill].Kill() // the align phase's first collective now fails
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
