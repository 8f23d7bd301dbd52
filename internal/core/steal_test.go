package core

import (
	"reflect"
	"testing"
	"time"

	"gnbody/internal/align"
	"gnbody/internal/overlap"
	"gnbody/internal/par"
	"gnbody/internal/partition"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
	"gnbody/internal/sim"
	"gnbody/internal/trace"
)

// runRealMode extends runReal with driver selection by name.
func runRealMode(t *testing.T, w *testWorkload, p int, driver string, exec Executor, cfg Config) ([]Hit, []*Result) {
	t.Helper()
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
	results := make([]*Result, p)
	errs := make([]error, p)
	cfg.Exec = exec
	world.Run(func(r rt.Runtime) {
		lo, hi := pt.Range(r.Rank())
		st := seq.Scope(w.reads, lo, hi, lens)
		in := &Input{Part: pt, Lens: lens, Tasks: byRank[r.Rank()],
			Codec: RealCodec{Store: st}, Store: st}
		switch driver {
		case "steal":
			results[r.Rank()], errs[r.Rank()] = RunAsyncStealing(r, in, cfg)
		case "async":
			results[r.Rank()], errs[r.Rank()] = RunAsync(r, in, cfg)
		default:
			results[r.Rank()], errs[r.Rank()] = RunBSP(r, in, cfg)
		}
	})
	var hits []Hit
	for rk := 0; rk < p; rk++ {
		if errs[rk] != nil {
			t.Fatalf("rank %d: %v", rk, errs[rk])
		}
		hits = append(hits, results[rk].Hits...)
	}
	SortHits(hits)
	return hits, results
}

func TestStealingMatchesSerial(t *testing.T) {
	w := makeWorkload(t, 9000, 6, 101)
	sc := align.DefaultScoring()
	want, err := SerialHits(w.reads, w.tasks, sc, 15, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 3, 6} {
		got, _ := runRealMode(t, w, p, "steal", RealExecutor{Scoring: sc, X: 15},
			Config{MinScore: 40, StealBatch: 4})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("P=%d: stealing driver %d hits, serial %d", p, len(got), len(want))
		}
	}
}

func TestStealingActuallySteals(t *testing.T) {
	// Skew the load: a model executor that makes rank-0-owned tasks very
	// expensive forces other ranks to finish early and steal.
	w := makeWorkload(t, 9000, 6, 103)
	meta := taskMetaFromTruth(w)
	exec := ModelExecutor{
		Model: align.CostModel{PerTask: time.Microsecond, PerCell: time.Nanosecond, Band: 31, FPCells: 1000},
		Meta:  meta,
	}
	// Run under the simulator so costs actually skew the timeline.
	lens := w.lens()
	lensInt := make([]int, len(lens))
	for i, l := range lens {
		lensInt[i] = int(l)
	}
	const p = 4
	pt, _ := partition.BySize(lensInt, p)
	byRank := partition.AssignTasks(w.tasks, pt)
	// Pile every task onto rank 0 to force stealing.
	heavy := byRank[0]
	for rk := 1; rk < p; rk++ {
		heavy = append(heavy, byRank[rk]...)
		byRank[rk] = nil
	}
	// Keep the owner invariant: only tasks owning a rank-0 read may stay.
	filtered := heavy[:0]
	var displaced int
	for _, task := range heavy {
		if pt.Owner(task.A) == 0 || pt.Owner(task.B) == 0 {
			filtered = append(filtered, task)
		} else {
			displaced++
		}
	}
	byRank[0] = filtered
	if displaced > 0 {
		t.Logf("dropped %d tasks not owned by rank 0 (invariant)", displaced)
	}
	// Stolen groups pull through the same fetcher as the rank's own queue,
	// alone or four reads to a request.
	for _, fetchBatch := range []int{1, 4} {
		tr := trace.New(p, trace.Config{BufCap: 1 << 16})
		eng, err := sim.NewEngine(sim.Config{Machine: sim.CoriKNL(), Nodes: 1, RanksPerNode: p, Seed: 1, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		results := make([]*Result, p)
		errs := make([]error, p)
		if err := eng.Run(func(r rt.Runtime) {
			in := &Input{Part: pt, Lens: lens, Tasks: byRank[r.Rank()], Codec: PhantomCodec{Lens: lens}}
			results[r.Rank()], errs[r.Rank()] = RunAsyncStealing(r, in, Config{Exec: exec, MinScore: 1, StealBatch: 4, FetchBatch: fetchBatch})
		}); err != nil {
			t.Fatal(err)
		}
		stolen, shed, remote, batched := 0, 0, 0, int64(0)
		for rk := 0; rk < p; rk++ {
			if errs[rk] != nil {
				t.Fatalf("rank %d: %v", rk, errs[rk])
			}
			stolen += results[rk].TasksStolen
			shed += results[rk].TasksShed
			remote += results[rk].RemoteTasks
			for _, ev := range tr.Rank(rk).Events(nil) {
				if ev.Kind != trace.KindBatch {
					continue
				}
				if ev.Arg == 0 {
					t.Errorf("FetchBatch=%d rank %d: a batch span with no tasks (a stolen task's per-read pull?)", fetchBatch, rk)
				}
				batched += ev.Arg
			}
			if n := results[rk].unreturned; n != 0 {
				t.Errorf("FetchBatch=%d rank %d: %d scratch buffers or batchers never returned", fetchBatch, rk, n)
			}
		}
		if stolen == 0 || shed == 0 {
			t.Errorf("FetchBatch=%d: no stealing under extreme skew: stolen=%d shed=%d", fetchBatch, stolen, shed)
		}
		if stolen != shed {
			t.Errorf("stolen %d != shed %d", stolen, shed)
		}
		// Own-queue pulls are traced under steal: their batch spans count
		// every remote task that was not handed to a thief.
		if batched != int64(remote-shed) {
			t.Errorf("FetchBatch=%d: batch spans cover %d tasks, want %d remote - %d shed", fetchBatch, batched, remote, shed)
		}
		// And the result set must still match the non-stealing reference.
		wantHits := SerialModelHits(byRank[0], meta, 1)
		var got []Hit
		for _, res := range results {
			got = append(got, res.Hits...)
		}
		SortHits(got)
		if !reflect.DeepEqual(got, wantHits) {
			t.Errorf("stealing changed the result set: %d vs %d hits", len(got), len(wantHits))
		}
	}
}

// TestFetchBatchEquivalence: however many same-owner reads share a request,
// both asynchronous drivers produce the serial hit set.
func TestFetchBatchEquivalence(t *testing.T) {
	w := makeWorkload(t, 9000, 6, 107)
	sc := align.DefaultScoring()
	want, err := SerialHits(w.reads, w.tasks, sc, 15, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, driver := range []string{"async", "steal"} {
		for _, batch := range []int{1, 4, 64} {
			got, results := runRealMode(t, w, 5, driver, RealExecutor{Scoring: sc, X: 15},
				Config{MinScore: 40, FetchBatch: batch})
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s FetchBatch=%d: %d hits, serial %d", driver, batch, len(got), len(want))
			}
			for rk, res := range results {
				if res.RemoteTasks+res.LocalTasks == 0 && len(res.Hits) > 0 {
					t.Errorf("%s FetchBatch=%d rank %d: hits without tasks", driver, batch, rk)
				}
			}
		}
	}
}

func TestFetchBatchReducesRPCs(t *testing.T) {
	w := makeWorkload(t, 9000, 6, 109)
	meta := taskMetaFromTruth(w)
	exec := ModelExecutor{Model: align.DefaultCostModel(), Meta: meta}
	rpcs := func(mode string, batch int) int64 {
		lens := w.lens()
		lensInt := make([]int, len(lens))
		for i, l := range lens {
			lensInt[i] = int(l)
		}
		const p = 4
		pt, _ := partition.BySize(lensInt, p)
		byRank := partition.AssignTasks(w.tasks, pt)
		eng, err := sim.NewEngine(sim.Config{Machine: sim.CoriKNL(), Nodes: 2, RanksPerNode: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(func(r rt.Runtime) {
			in := &Input{Part: pt, Lens: lens, Tasks: byRank[r.Rank()], Codec: PhantomCodec{Lens: lens}}
			if _, err := Run(mode, r, in, Config{Exec: exec, MinScore: 1, FetchBatch: batch}); err != nil {
				t.Error(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		var total int64
		for i := 0; i < eng.Ranks(); i++ {
			total += eng.Metrics(i).RPCsSent
		}
		return total
	}
	// Under steal the count also holds probes and stolen-group pulls; the
	// simulator's virtual time makes it repeatable all the same.
	for _, mode := range []string{"async", "steal"} {
		one, sixteen := rpcs(mode, 1), rpcs(mode, 16)
		if sixteen >= one {
			t.Errorf("%s: FetchBatch=16 issued %d RPCs, FetchBatch=1 issued %d", mode, sixteen, one)
		}
		if sixteen < one/32 {
			t.Errorf("%s: suspiciously few RPCs with batching: %d vs %d", mode, sixteen, one)
		}
	}
}

// FuzzStolenGroups: the steal bundle is bytes from a peer. Whatever they
// are, decoding returns groups or an error — never a panic, never more
// tasks than the bytes can hold — and what it accepts re-encodes to the
// bytes it came from.
func FuzzStolenGroups(f *testing.F) {
	ts := []*overlap.Task{
		{A: 3, B: 9, Seed: overlap.Seed{PosA: 5, PosB: 70000, K: 17, RC: true}},
		{A: 9, B: 4, Seed: overlap.Seed{PosA: 1 << 20, PosB: 0, K: 31}},
	}
	f.Add(appendStolenGroup(appendStolenGroup(nil, 9, ts), 7, nil))
	f.Add([]byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, buf []byte) {
		groups, err := decodeStolenGroups(buf)
		if err != nil {
			return
		}
		var again []byte
		tasks := 0
		for _, g := range groups {
			ptrs := make([]*overlap.Task, len(g.tasks))
			for i := range g.tasks {
				ptrs[i] = &g.tasks[i]
			}
			tasks += len(g.tasks)
			again = appendStolenGroup(again, g.rid, ptrs)
		}
		if tasks*stolenTaskWire > len(buf) {
			t.Fatalf("%d tasks decoded from %d bytes", tasks, len(buf))
		}
		// The RC flag is one byte of which only the value 1 means true:
		// compare through a second decode rather than byte for byte.
		back, err := decodeStolenGroups(again)
		if err != nil || !reflect.DeepEqual(back, groups) {
			t.Fatalf("re-encoded bundle decodes to %v (%v), want %v", back, err, groups)
		}
	})
}
