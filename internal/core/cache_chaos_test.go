package core

import (
	"errors"
	"testing"
	"time"

	"gnbody/internal/align"
	"gnbody/internal/dist"
	"gnbody/internal/partition"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
	"gnbody/internal/transport"
)

// TestCacheChaosFault kills or stalls a rank mid-exchange with the
// remote-read cache enabled. The regression it pins: the cache's unbind is
// deferred, so even when the dist runtime unwinds a rank through a
// fault panic, every pinned entry is force-released and the memory charge
// returned — a faulted job must not leak pins any more than a clean one.
// The job itself must fail promptly with the usual typed errors, not hang.
func TestCacheChaosFault(t *testing.T) {
	w := makeWorkload(t, 9000, 6, 59)
	sc := align.DefaultScoring()
	const (
		p        = 4
		victim   = 2
		deadline = 250 * time.Millisecond
	)
	lens := w.lens()
	lensInt := make([]int, len(lens))
	for i, l := range lens {
		lensInt[i] = int(l)
	}
	pt, err := partition.BySize(lensInt, p)
	if err != nil {
		t.Fatal(err)
	}
	byRank := partition.AssignTasks(w.tasks, pt)
	for _, tc := range []struct {
		name string
		plan transport.FaultPlan
	}{
		{"crash", transport.FaultPlan{Action: transport.FaultCrash, AfterSends: 3}},
		{"stall", transport.FaultPlan{Action: transport.FaultStall, AfterSends: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fabric := transport.NewLoopback(p)
			fabric[victim] = transport.NewFault(fabric[victim], tc.plan)
			world, err := dist.NewWorldOver(fabric, dist.Config{ProgressDeadline: deadline})
			if err != nil {
				t.Fatal(err)
			}
			caches := make([]*ReadCache, p)
			for i := range caches {
				caches[i] = NewReadCache(16 << 10)
			}
			done := make(chan error, 1)
			go func() {
				done <- world.Run(func(r rt.Runtime) {
					lo, hi := pt.Range(r.Rank())
					st := seq.Scope(w.reads, lo, hi, lens)
					in := &Input{Part: pt, Lens: lens, Tasks: byRank[r.Rank()],
						Codec: RealCodec{Store: st}, Store: st}
					cfg := Config{Exec: RealExecutor{Scoring: sc, X: 15}, MinScore: 50,
						MaxOutstanding: 8, Cache: caches[r.Rank()]}
					if _, err := RunAsync(r, in, cfg); err != nil {
						panic(err) // surfaces as a rank error; must not reach here on fault unwind
					}
				})
			}()
			var runErr error
			select {
			case runErr = <-done:
			case <-time.After(30 * time.Second):
				world.Close()
				t.Fatal("faulted cached run hung past the watchdog")
			}
			world.Close()
			if runErr == nil {
				t.Fatal("faulted run reported success")
			}
			var re *dist.RankError
			if !errors.As(runErr, &re) {
				t.Fatalf("no *dist.RankError in: %v", runErr)
			}
			if !errors.Is(runErr, transport.ErrInjectedFault) &&
				!errors.Is(runErr, dist.ErrProgressDeadline) {
				t.Errorf("error is neither the injected fault nor a deadline: %v", runErr)
			}
			for rk := 0; rk < p; rk++ {
				if pb := caches[rk].PinnedBytes(); pb != 0 {
					t.Errorf("rank %d: %d pinned bytes leaked through fault unwind", rk, pb)
				}
			}
		})
	}
}
