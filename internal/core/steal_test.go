package core

import (
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
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

// TestStealRejectsForgedBundle: a steal bundle is a peer's bytes. A thief
// handed one that names a read past the length vector, files a task under a
// read it does not involve, or carries a seed outside its reads fails with
// an ExchangeError naming the victim before it fetches anything; the victim
// finishes, and nobody hangs. Without the check the first indexed the
// length vector out of range and the seeds reached the aligner's panic.
func TestStealRejectsForgedBundle(t *testing.T) {
	const p = 2
	w := makeWorkload(t, 9000, 6, 103)
	lens := w.lens()
	lensInt := make([]int, len(lens))
	for i, l := range lens {
		lensInt[i] = int(l)
	}
	pt, err := partition.BySize(lensInt, p)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 holds every task it may (the owner invariant), so rank 1 has
	// nothing of its own and goes straight to stealing.
	var tasks []overlap.Task
	for _, task := range w.tasks {
		if pt.Owner(task.A) == 0 || pt.Owner(task.B) == 0 {
			tasks = append(tasks, task)
		}
	}
	n := seq.ReadID(len(lens))
	for _, tc := range []struct {
		name  string
		forge func(g *stolenGroup)
	}{
		{"task read past the length vector", func(g *stolenGroup) {
			if g.tasks[0].A == g.rid {
				g.tasks[0].B = n
			} else {
				g.tasks[0].A = n
			}
		}},
		{"group read past the length vector", func(g *stolenGroup) { g.rid, g.tasks = n+7, nil }},
		{"task outside its group", func(g *stolenGroup) { g.tasks[0].A, g.tasks[0].B = (g.rid+1)%n, (g.rid+2)%n }},
		{"seed past the read", func(g *stolenGroup) { g.tasks[0].Seed.PosA = int32(lens[g.tasks[0].A]) }},
		{"negative seed", func(g *stolenGroup) { g.tasks[0].Seed.PosB = -1 }},
		{"empty seed", func(g *stolenGroup) { g.tasks[0].Seed.K = 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			world, err := par.NewWorld(par.Config{P: p})
			if err != nil {
				t.Fatal(err)
			}
			defer world.Close()
			var forged atomic.Bool
			errs := make([]error, p)
			world.Run(func(r rt.Runtime) {
				lo, hi := pt.Range(r.Rank())
				st := seq.Scope(w.reads, lo, hi, lens)
				in := &Input{Part: pt, Lens: lens, Codec: RealCodec{Store: st}, Store: st}
				if r.Rank() == 0 {
					in.Tasks = tasks
				} else {
					r = &forgingRuntime{Runtime: r, forge: tc.forge, done: &forged}
				}
				exec := stallingExecutor{RealExecutor{Scoring: align.DefaultScoring(), X: 15}, &forged}
				_, errs[r.Rank()] = RunAsyncStealing(r, in, Config{Exec: exec, MinScore: 40, StealBatch: 4})
			})
			if !forged.Load() {
				t.Fatal("rank 1 never received a bundle to forge")
			}
			var xe *ExchangeError
			if !errors.As(errs[1], &xe) || xe.Rank != 1 || xe.From != 0 || !strings.Contains(xe.Reason, "bad steal bundle") {
				t.Errorf("thief returned %v, want an ExchangeError naming victim 0", errs[1])
			}
			if errs[0] != nil {
				t.Errorf("victim returned %v", errs[0])
			}
		})
	}
}

// forgingRuntime rewrites the first group of the first non-empty steal
// bundle this rank receives, then sets done.
type forgingRuntime struct {
	rt.Runtime
	forge func(g *stolenGroup)
	done  *atomic.Bool
}

func (c *forgingRuntime) AsyncCall(owner int, req []byte, cb func([]byte)) {
	if req[0] != reqSteal {
		c.Runtime.AsyncCall(owner, req, cb)
		return
	}
	c.Runtime.AsyncCall(owner, req, func(val []byte) {
		if groups, err := decodeStolenGroups(val); err == nil && len(groups) > 0 && !c.done.Load() {
			c.forge(&groups[0])
			val = nil
			for _, g := range groups {
				ptrs := make([]*overlap.Task, len(g.tasks))
				for i := range g.tasks {
					ptrs[i] = &g.tasks[i]
				}
				val = appendStolenGroup(val, g.rid, ptrs)
			}
			c.done.Store(true)
		}
		cb(val)
	})
}

// stallingExecutor keeps its rank polling before its first task until the
// thief has its forged bundle, so the victim's queue still holds groups to
// hand over when the probe arrives. The wait is bounded: a test that never
// forges fails instead of hanging. (exec is a field, not embedded, so the
// executor is no PerRankExecutor whose ForRank would drop the stall.)
type stallingExecutor struct {
	exec   RealExecutor
	forged *atomic.Bool
}

func (e stallingExecutor) Align(r rt.Runtime, t overlap.Task, a, b seq.Seq) (align.Result, bool) {
	for deadline := time.Now().Add(10 * time.Second); !e.forged.Load() && time.Now().Before(deadline); {
		r.Progress()
	}
	return e.exec.Align(r, t, a, b)
}
