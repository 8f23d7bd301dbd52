package pipeline

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"gnbody/internal/overlap"
	"gnbody/internal/par"
	"gnbody/internal/rt"
	"gnbody/internal/sim"
	"gnbody/internal/workload"
)

// drainScratch empties scratchPool and returns what it held.
func drainScratch() []*scratch {
	var got []*scratch
	for {
		s, ok := scratchPool.Get().(*scratch)
		if !ok {
			return got
		}
		got = append(got, s)
	}
}

// warmDiscoverSlack is what a warm Run may allocate per rank beyond the
// frames it receives and the tasks it returns: the runtime's collectives,
// the Run's closures and output, the cost rows, the last round's sends and
// the placement's pick lists — nothing that grows with the k-mers scanned.
const warmDiscoverSlack = 32 << 10

// TestWarmDiscoverAllocates: on a resident world a discover Run reuses
// the scratch an earlier Run handed back — the census, keep-bitmap,
// record, candidate and task sends, the count table, the kept records and
// their sort array, the dedup buffers — so it allocates the frames the
// runtime receives for it (the loopback fabric allocates each at its
// power-of-two size class, so up to twice its bytes), its returned tasks
// and a constant. Measured on the process's allocation counter with the
// collector off, so no pooled scratch is lost between Runs.
func TestWarmDiscoverAllocates(t *testing.T) {
	const p, k, lo, hi = 2, 15, 2, 12
	reads := mixedReads(t, 1)
	lens := workload.LensOf(reads)
	pt := sizePartition(t, lens, p)
	want := serialTasks(t, reads, k, lo, hi)
	world, err := par.NewWorld(par.Config{P: p})
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// One P: sync.Pool hands a goroutine only its own P's private slot, so
	// on several a scratch parked in another P's slot is out of reach and
	// a rank starts cold, however warm the pool (seen on a busy machine).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	plan := &Plan{Part: pt, Lens: lens, K: k, Lo: lo, Hi: hi}
	run := func() (outs []*Output, alloc, recv int) {
		outs = make([]*Output, p)
		errs := make([]error, p)
		world.ResetMetrics()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		world.Run(func(r rt.Runtime) {
			outs[r.Rank()], errs[r.Rank()] = plan.Run(r, scopeRank(r, pt, reads, lens))
		})
		runtime.ReadMemStats(&after)
		for rk, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", rk, err)
			}
			recv += int(world.Metrics(rk).BytesRecv)
		}
		return outs, int(after.TotalAlloc - before.TotalAlloc), recv
	}
	drainScratch()
	cold, coldAlloc, _ := run()
	// A rank may take another rank's scratch, so let every scratch grow to
	// what any rank needs.
	for range 2 * p {
		run()
	}
	warm, got, recv := run()
	sameTasks(t, "cold Run", unionTasks(t, cold, pt), want)
	sameTasks(t, "warm Run", unionTasks(t, warm, pt), want)
	if raceEnabled {
		t.Skip("the race detector drops pooled objects at random")
	}
	limit := 2*recv + len(want)*int(unsafe.Sizeof(overlap.Task{})) + p*warmDiscoverSlack
	t.Logf("cold Run allocated %d bytes, warm Run %d: %d bytes received, %d tasks, limit %d", coldAlloc, got, recv, len(want), limit)
	if got > limit {
		t.Errorf("warm Run allocated %d bytes, want at most %d (%d bytes received, %d tasks, %d ranks)", got, limit, recv, len(want), p)
	}
}

// TestPooledScratchKeepsPeersFrames is rule 1 of scratch under the
// simulator, which hands a sender's slices to the receivers uncopied:
// discover Runs back to back on one world, with no barrier between them,
// and then as many on a second world of another size drawing from the
// same pool, each give the serial reference's tasks. A rank that returns
// from a Run may start the next while a peer still decodes the frames it
// sent in the last round, so those sends (place's moved) must stay out of
// the scratch: sending them from the census buffers, which the next Run
// refills first, fails this test, under -race as without it. Eight Runs a
// world, not two, because the race detector drops a quarter of the pool's
// puts, and with them the reuse the test needs.
func TestPooledScratchKeepsPeersFrames(t *testing.T) {
	const k, lo, hi = 15, 2, 12
	reads := mixedReads(t, 2)
	lens := workload.LensOf(reads)
	want := serialTasks(t, reads, k, lo, hi)
	for _, p := range []int{4, 3} {
		pt := sizePartition(t, lens, p)
		eng, err := sim.NewEngine(sim.Config{Machine: sim.CoriKNL(), Nodes: 1, RanksPerNode: p, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var outs [8][]*Output
		var errs [8][]error
		for i := range outs {
			outs[i], errs[i] = make([]*Output, p), make([]error, p)
		}
		plan := &Plan{Part: pt, Lens: lens, K: k, Lo: lo, Hi: hi}
		if err := eng.Run(func(r rt.Runtime) {
			for i := range outs {
				outs[i][r.Rank()], errs[i][r.Rank()] = plan.Run(r, scopeRank(r, pt, reads, lens))
			}
		}); err != nil {
			t.Fatal(err)
		}
		for i := range outs {
			for rk, err := range errs[i] {
				if err != nil {
					t.Fatalf("P=%d Run %d rank %d: %v", p, i, rk, err)
				}
			}
			sameTasks(t, "pooled scratch", unionTasks(t, outs[i], pt), want)
		}
	}
}

// TestOversizedScratchIsNotPooled: release pools a scratch only while its
// buffers fit in maxPooled, so a large job leaves no large scratch behind.
func TestOversizedScratchIsNotPooled(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as in TestWarmDiscoverAllocates
	drainScratch()
	big := &scratch{cands: make([]candRec, maxPooled/int(unsafe.Sizeof(candRec{}))+1)}
	small := &scratch{cands: make([]candRec, 1)}
	big.release()
	small.release()
	pooled := map[*scratch]bool{}
	for _, s := range drainScratch() {
		pooled[s] = true
	}
	if pooled[big] {
		t.Error("a scratch larger than maxPooled was pooled")
	}
	if !pooled[small] && !raceEnabled {
		t.Error("a small idle scratch was not pooled")
	}
}
