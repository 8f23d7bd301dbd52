package core

import (
	"bytes"
	"errors"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
	"unsafe"

	"gnbody/internal/align"
	"gnbody/internal/dist"
	"gnbody/internal/overlap"
	"gnbody/internal/par"
	"gnbody/internal/partition"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
	"gnbody/internal/transport"
)

// drainScratch empties scratchPool and returns what it held.
func drainScratch() []*runScratch {
	var got []*runScratch
	for {
		s, ok := scratchPool.Get().(*runScratch)
		if !ok {
			return got
		}
		got = append(got, s)
	}
}

// warmRunSlack is what a warm Run may allocate per rank beyond its hits
// and its task stores: the runtime's collectives and frames, the fetcher
// and its closures, BSP's request lists — nothing that grows with the
// reads exchanged or the alignments run (about 17 KiB measured on BSP, 8
// KiB on async).
const warmRunSlack = 24 << 10

// storeBytesPerTask bounds both task stores' footprint per task: the flat
// store copies a task and keeps a sort key, the pointer store keeps a
// pointer and a sort key, and either indexes a group per remote read.
const storeBytesPerTask = int(unsafe.Sizeof(overlap.Task{})) + 8 + 8 + 16

// TestWarmRunAllocatesOnlyHits: on a resident world a Run reuses the
// scratch an earlier Run handed back — decode and payload buffers,
// batchers, waiter lists, the alignment workspace — so it allocates its
// returned hits, its task stores and a constant, not the exchange's
// buffers over again. Measured on the process's allocation counter with
// the collector off, so no pooled scratch is lost between Runs.
func TestWarmRunAllocatesOnlyHits(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const p = 3
	w := makeWorkload(t, 12000, 6, 61)
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
	world, err := par.NewWorld(par.Config{P: p})
	if err != nil {
		t.Fatal(err)
	}
	sc := align.DefaultScoring()
	for _, mode := range []string{"bsp", "async"} {
		results := make([]*Result, p)
		errs := make([]error, p)
		run := func() {
			world.Run(func(r rt.Runtime) {
				lo, hi := pt.Range(r.Rank())
				st := seq.Scope(w.reads, lo, hi, lens)
				in := &Input{Part: pt, Lens: lens, Tasks: byRank[r.Rank()], Codec: RealCodec{Store: st}, Store: st}
				cfg := Config{Exec: RealExecutor{Scoring: sc, X: 15}, MinScore: 50, MaxOutstanding: 8}
				results[r.Rank()], errs[r.Rank()] = Run(mode, r, in, cfg)
			})
		}
		// Warm-up: a rank may take another rank's scratch, so let every
		// scratch grow to what any rank needs.
		for i := 0; i < 2*p; i++ {
			run()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		hits := 0
		for rk := range results {
			if errs[rk] != nil {
				t.Fatalf("%s rank %d: %v", mode, rk, errs[rk])
			}
			if results[rk].unreturned != 0 {
				t.Errorf("%s rank %d: %d scratch buffers unreturned", mode, rk, results[rk].unreturned)
			}
			hits += len(results[rk].Hits)
		}
		if hits == 0 {
			t.Fatalf("%s: no hits; the workload is broken", mode)
		}
		got := int(after.TotalAlloc - before.TotalAlloc)
		limit := hits*int(unsafe.Sizeof(Hit{})) + len(w.tasks)*storeBytesPerTask + p*warmRunSlack
		t.Logf("%s: warm Run allocated %d bytes: %d hits, %d tasks, limit %d", mode, got, hits, len(w.tasks), limit)
		if got > limit {
			t.Errorf("%s: warm Run allocated %d bytes, want at most %d (%d hits, %d tasks, %d ranks)",
				mode, got, limit, hits, len(w.tasks), p)
		}
	}
}

// TestBSPWarmSuperstepsRepeat runs a budgeted multi-superstep BSP Run
// twice in one world, on par and on sim, and wants both byte-identical to
// the serial reference. The second Run encodes into payload buffers the
// first one used; on sim the receivers read the sender's buffers in place,
// so a buffer reused before its superstep closed would change the bytes.
func TestBSPWarmSuperstepsRepeat(t *testing.T) {
	w := makeWorkload(t, 10000, 6, 53)
	sc := align.DefaultScoring()
	want, err := SerialHits(w.reads, w.tasks, sc, 15, 50)
	if err != nil {
		t.Fatal(err)
	}
	lens := w.lens()
	lensInt := make([]int, len(lens))
	for i, l := range lens {
		lensInt[i] = int(l)
	}
	pt, err := partition.BySize(lensInt, planRanks)
	if err != nil {
		t.Fatal(err)
	}
	byRank := partition.AssignTasks(w.tasks, pt)
	for _, backend := range []string{"par", "sim"} {
		var runs [2][planRanks]*Result
		var errs [2][planRanks]error
		planWorld(t, backend, func(r rt.Runtime) {
			rk := r.Rank()
			lo, hi := pt.Range(rk)
			st := seq.Scope(w.reads, lo, hi, lens)
			in := &Input{Part: pt, Lens: lens, Tasks: byRank[rk], Codec: RealCodec{Store: st}, Store: st}
			for i := range runs {
				runs[i][rk], errs[i][rk] = RunBSP(r, in, Config{Exec: RealExecutor{Scoring: sc, X: 15}, MinScore: 50})
			}
		})
		for i := range runs {
			var hits []Hit
			steps := 0
			for rk, res := range runs[i] {
				if errs[i][rk] != nil {
					t.Fatalf("%s run %d rank %d: %v", backend, i, rk, errs[i][rk])
				}
				hits = append(hits, res.Hits...)
				steps = max(steps, res.Supersteps)
			}
			SortHits(hits)
			if !bytes.Equal(EncodeHits(hits), EncodeHits(want)) {
				t.Errorf("%s run %d: %d hits differ from the serial reference's %d", backend, i, len(hits), len(want))
			}
			if steps < 3 {
				t.Errorf("%s run %d: %d supersteps; the test needs several", backend, i, steps)
			}
		}
	}
}

// TestFaultedRunPoolsNoBusyScratch: a Run that unwinds with a decode
// buffer and a batcher level checked out drops its scratch instead of
// pooling it; and after a FaultTransport crash unwinds an asynchronous Run
// mid-exchange, every scratch the pool holds is idle and pins no task.
func TestFaultedRunPoolsNoBusyScratch(t *testing.T) {
	t.Run("unwind", func(t *testing.T) {
		fc, w := fetchHarness(t, 4096)
		fc.cfg.Exec = panicExecutor{}
		busy := fc.s
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("the executor's panic did not unwind the fetch")
				}
			}()
			fc.fetch(w)
		}()
		if busy.idle() {
			t.Fatal("the unwind left nothing checked out; the test shows nothing")
		}
		drainScratch()
		busy.release() // what the end func begin returned does last
		for _, s := range drainScratch() {
			if s == busy {
				t.Fatal("a scratch with a buffer checked out was pooled")
			}
		}
	})
	t.Run("crash", func(t *testing.T) {
		drainScratch()
		const p, victim = 4, 2
		w := makeWorkload(t, 9000, 6, 59)
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
		fabric := transport.NewLoopback(p)
		fabric[victim] = transport.NewFault(fabric[victim], transport.FaultPlan{Action: transport.FaultCrash, AfterSends: 3})
		world, err := dist.NewWorldOver(fabric, dist.Config{ProgressDeadline: 250 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer world.Close()
		sc := align.DefaultScoring()
		runErr := world.Run(func(r rt.Runtime) {
			lo, hi := pt.Range(r.Rank())
			st := seq.Scope(w.reads, lo, hi, lens)
			in := &Input{Part: pt, Lens: lens, Tasks: byRank[r.Rank()], Codec: RealCodec{Store: st}, Store: st}
			if _, err := RunAsync(r, in, Config{Exec: RealExecutor{Scoring: sc, X: 15}, MinScore: 50,
				MaxOutstanding: 8}); err != nil {
				panic(err)
			}
		})
		var re *dist.RankError
		if !errors.As(runErr, &re) {
			t.Fatalf("crashed run returned %v, want a *dist.RankError", runErr)
		}
		for _, s := range drainScratch() {
			if !s.idle() {
				t.Errorf("pooled scratch has %d decode buffers and %d batcher levels out", s.seqs.out, s.depth)
			}
			for _, sp := range s.spare {
				for _, wt := range sp.ws[:cap(sp.ws)] {
					if wt.tasks != nil {
						t.Fatal("a pooled scratch's spare waiter list still pins tasks")
					}
				}
			}
		}
	})
}

// panicExecutor fails the way a fault unwind does: by panicking out of the
// task loop, here from inside the group that a pulled read runs.
type panicExecutor struct{}

func (panicExecutor) Align(rt.Runtime, overlap.Task, seq.Seq, seq.Seq) (align.Result, bool) {
	panic("injected unwind")
}
