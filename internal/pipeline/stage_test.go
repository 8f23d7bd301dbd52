package pipeline

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"gnbody/internal/align"
	"gnbody/internal/core"
	"gnbody/internal/overlap"
	"gnbody/internal/par"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
	"gnbody/internal/workload"
)

// TestRunStagesMatchesSerial: a [discover, align] stage list launched
// through RunOn must reproduce the serial reference — serial candidate
// discovery plus core.SerialHits — hit for hit, and record one metrics row
// per stage.
func TestRunStagesMatchesSerial(t *testing.T) {
	reads := pipelineReads(t, 3)
	lens := workload.LensOf(reads)
	const p = 5

	tasks, _, _, err := overlap.FromReadSet(reads, overlap.Config{K: 15, Lo: 2, Hi: 60})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.SerialHits(reads, tasks, align.DefaultScoring(), 20, 50)
	if err != nil {
		t.Fatal(err)
	}
	core.SortHits(want)
	if len(want) == 0 {
		t.Fatal("serial reference found no hits; workload broken")
	}

	pl, err := NewPlan(lens, p, Spec{K: 15, Lo: 2, Hi: 60})
	if err != nil {
		t.Fatal(err)
	}
	pl.Stages = []Stage{DiscoverStage{}, AlignStage{MinScore: 50, X: 20}}
	var fired []string
	pl.OnStage = func(r rt.Runtime, stage string, out any) {
		if r.Rank() == 0 {
			fired = append(fired, stage)
		}
	}
	world, err := par.NewWorld(par.Config{P: p})
	if err != nil {
		t.Fatal(err)
	}
	afterRan := make([]bool, p)
	runs, err := pl.RunOn(world,
		func(r rt.Runtime) seq.Store { return scopeRank(r, pl.Part, reads, lens) },
		func(r rt.Runtime, run *StageRun) error {
			afterRan[r.Rank()] = run != nil
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	var got []core.Hit
	for rk, run := range runs {
		if !afterRan[rk] {
			t.Errorf("rank %d: after did not run", rk)
		}
		if len(run.Rows) != 2 || run.Rows[0].Stage != "discover" || run.Rows[1].Stage != "align" {
			t.Fatalf("rank %d: stage rows %v, want [discover align]", rk, run.Rows)
		}
		if run.Rows[0].RankMetrics.Rank != rk {
			t.Errorf("row tagged rank %d, want %d", run.Rows[0].RankMetrics.Rank, rk)
		}
		if _, ok := run.Outs[0].(*Output); !ok {
			t.Errorf("rank %d: intermediate output is %T, want *Output", rk, run.Outs[0])
		}
		got = append(got, run.Out.(*core.Result).Hits...)
	}
	core.SortHits(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("staged path %d hits differ from serial reference %d", len(got), len(want))
	}
	if !reflect.DeepEqual(fired, []string{"discover", "align"}) {
		t.Fatalf("OnStage fired %v on rank 0, want [discover align]", fired)
	}
}

// failStage errors on one rank only; every peer must still come out of
// RunStages with a *StageError naming the stage.
type failStage struct{ on int }

func (failStage) Name() string { return "fail" }
func (s failStage) Run(r rt.Runtime, _ *Plan, _ seq.Store, _ any) (any, error) {
	if r.Rank() == s.on {
		return nil, errors.New("injected")
	}
	return "ok", nil
}

func TestRunStagesAbortAgreement(t *testing.T) {
	reads := pipelineReads(t, 4)
	lens := workload.LensOf(reads)
	const p = 4
	pl, err := NewPlan(lens, p, Spec{K: 15, Lo: 2, Hi: 60})
	if err != nil {
		t.Fatal(err)
	}
	pl.Stages = []Stage{failStage{on: 2}, DiscoverStage{}}
	world, err := par.NewWorld(par.Config{P: p})
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, p)
	if err := world.Run(func(r rt.Runtime) {
		st := scopeRank(r, pl.Part, reads, lens)
		_, errs[r.Rank()] = pl.RunStages(r, st, nil)
	}); err != nil {
		t.Fatal(err)
	}
	for rk := 0; rk < p; rk++ {
		var se *StageError
		if !errors.As(errs[rk], &se) {
			t.Fatalf("rank %d: error %v is not a *StageError", rk, errs[rk])
		}
		if se.Stage != "fail" {
			t.Errorf("rank %d: failing stage reported as %q", rk, se.Stage)
		}
		if rk == 2 && se.Err == nil {
			t.Error("instigating rank lost its root cause")
		}
		if rk != 2 && se.Err != nil {
			t.Errorf("innocent rank %d carries cause %v", rk, se.Err)
		}
	}
}

// failWorld runs nothing and reports a backend failure, as a dist world
// does when a rank is lost mid-region.
type failWorld struct{ err error }

func (w failWorld) Run(func(rt.Runtime)) error { return w.err }

// TestRunOnErrorFold pins the launcher's one folded error: the world's own
// error wins; else the instigating rank's root cause is preferred over its
// peers' abort reports; else after's error surfaces — and after never runs
// on an aborted region.
func TestRunOnErrorFold(t *testing.T) {
	reads := pipelineReads(t, 4)
	lens := workload.LensOf(reads)
	const p = 4
	pl, err := NewPlan(lens, p, Spec{K: 15, Lo: 2, Hi: 60})
	if err != nil {
		t.Fatal(err)
	}
	storeFor := func(r rt.Runtime) seq.Store { return scopeRank(r, pl.Part, reads, lens) }
	world, err := par.NewWorld(par.Config{P: p})
	if err != nil {
		t.Fatal(err)
	}

	// Rank 2 instigates; ranks 0 and 1 come first in rank order with mere
	// abort reports and must not win.
	pl.Stages = []Stage{failStage{on: 2}, DiscoverStage{}}
	var afterRuns atomic.Int32
	runs, err := pl.RunOn(world, storeFor, func(rt.Runtime, *StageRun) error {
		afterRuns.Add(1)
		return nil
	})
	var se *StageError
	if !errors.As(err, &se) || se.Rank != 2 || se.Err == nil || se.Stage != "fail" {
		t.Errorf("folded error %v, want rank 2's root cause in stage fail", err)
	}
	if !strings.Contains(fmt.Sprint(err), "rank 2") || !strings.Contains(fmt.Sprint(err), "injected") {
		t.Errorf("folded error %q does not name the instigator and its cause", err)
	}
	if n := afterRuns.Load(); n != 0 {
		t.Errorf("after ran on %d ranks of an aborted region", n)
	}
	for rk, run := range runs {
		if run != nil {
			t.Errorf("rank %d kept a StageRun from an aborted region", rk)
		}
	}

	// A clean region whose gather fails on two ranks: the first is reported.
	pl.Stages = []Stage{failStage{on: -1}}
	_, err = pl.RunOn(world, storeFor, func(r rt.Runtime, _ *StageRun) error {
		if r.Rank()%2 == 1 {
			return fmt.Errorf("gather failed on rank %d", r.Rank())
		}
		return nil
	})
	if err == nil || err.Error() != "gather failed on rank 1" {
		t.Errorf("folded error %v, want after's first error", err)
	}

	// The world's own error wins over everything.
	lost := errors.New("rank 3 lost")
	if _, err = pl.RunOn(failWorld{lost}, storeFor, nil); !errors.Is(err, lost) {
		t.Errorf("folded error %v, want the world error", err)
	}
}
