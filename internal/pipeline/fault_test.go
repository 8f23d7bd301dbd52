package pipeline

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"gnbody/internal/dist"
	"gnbody/internal/rt"
	"gnbody/internal/transport"
	"gnbody/internal/workload"
)

// TestDiscoverFaults runs discover on four dist ranks over the loopback
// fabric, one of them behind a fault injector. A crash or a stall of that
// rank in any of discover's seven rounds (DESIGN §18) must end with every
// rank returning an error within the progress deadline, never a hang;
// duplicated and delayed frames must change nothing, so the union of tasks
// is still the serial reference's. Each round is one Alltoallv, three
// frames a rank at four ranks, so a fault after send 3·round+1 fires
// inside that round. The runs that must succeed get a
// longer deadline, so that a rank slowed by the race detector on a busy
// machine is not taken for a dead one.
func TestDiscoverFaults(t *testing.T) {
	const p, victim, k, lo, hi = 4, 2, 15, 2, 12
	reads := mixedReads(t, 1)
	lens := workload.LensOf(reads)
	pt := sizePartition(t, lens, p)
	want := serialTasks(t, reads, k, lo, hi)

	// run executes discover over the faulted fabric and returns each rank's
	// output and World.Run's error; a run past the watchdog fails the test.
	run := func(t *testing.T, plan transport.FaultPlan, deadline time.Duration) ([]*Output, error) {
		fabric := transport.NewLoopback(p)
		fabric[victim] = transport.NewFault(fabric[victim], plan)
		w, err := dist.NewWorldOver(fabric, dist.Config{ProgressDeadline: deadline})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		outs := make([]*Output, p)
		done := make(chan error, 1)
		go func() {
			done <- w.Run(func(r rt.Runtime) {
				out, err := (&Plan{Part: pt, Lens: lens, K: k, Lo: lo, Hi: hi}).Run(r, scopeRank(r, pt, reads, lens))
				if err != nil {
					t.Errorf("rank %d: %v", r.Rank(), err)
				}
				outs[r.Rank()] = out
			})
		}()
		select {
		case err := <-done:
			return outs, err
		case <-time.After(30 * time.Second):
			t.Fatal("discover hung past the watchdog")
			return nil, nil
		}
	}

	for round, name := range []string{"census", "bitmap", "record", "candidate", "task", "cost", "moved task"} {
		for _, fault := range []struct {
			name   string
			action transport.FaultAction
		}{{"crash", transport.FaultCrash}, {"stall", transport.FaultStall}} {
			action := fault.action
			t.Run(name+" round, "+fault.name, func(t *testing.T) {
				_, err := run(t, transport.FaultPlan{Action: action, AfterSends: 3*round + 1}, 250*time.Millisecond)
				if err == nil {
					t.Fatal("discover over a faulted rank returned nil")
				}
				if action == transport.FaultCrash && !errors.Is(err, transport.ErrInjectedFault) {
					t.Errorf("the crashed rank's injected fault is missing: %v", err)
				}
				failed := map[int]bool{}
				for _, e := range err.(interface{ Unwrap() []error }).Unwrap() {
					var re *dist.RankError
					if !errors.As(e, &re) {
						t.Fatalf("%v is not a *dist.RankError", e)
					}
					failed[re.Rank] = true
				}
				if len(failed) != p {
					t.Fatalf("ranks %v failed, want all %d: %v", failed, p, err)
				}
				if !errors.Is(err, dist.ErrProgressDeadline) {
					t.Errorf("no survivor hit the progress deadline: %v", err)
				}
			})
		}
	}
	for _, plan := range []transport.FaultPlan{{Seed: 3, DupEvery: 2}, {Seed: 4, DelayEvery: 2, DelayPolls: 6}} {
		t.Run(fmt.Sprintf("dup every %d, delay every %d", plan.DupEvery, plan.DelayEvery), func(t *testing.T) {
			outs, err := run(t, plan, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			sameTasks(t, "faulted fabric", unionTasks(t, outs, pt), want)
		})
	}
}
