package core

import (
	"reflect"
	"testing"

	"gnbody/internal/align"
	"gnbody/internal/par"
	"gnbody/internal/partition"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
	"gnbody/internal/sim"
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
		results[r.Rank()], errs[r.Rank()] = Run(driver, r, in, cfg)
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

// TestFetchBatchEquivalence: however many same-owner reads share a request,
// the asynchronous driver produces the serial hit set.
func TestFetchBatchEquivalence(t *testing.T) {
	w := makeWorkload(t, 9000, 6, 107)
	sc := align.DefaultScoring()
	want, err := SerialHits(w.reads, w.tasks, sc, 15, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 4, 64} {
		got, results := runRealMode(t, w, 5, "async", RealExecutor{Scoring: sc, X: 15},
			Config{MinScore: 40, FetchBatch: batch})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("FetchBatch=%d: %d hits, serial %d", batch, len(got), len(want))
		}
		for rk, res := range results {
			if res.RemoteTasks+res.LocalTasks == 0 && len(res.Hits) > 0 {
				t.Errorf("FetchBatch=%d rank %d: hits without tasks", batch, rk)
			}
		}
	}
}

func TestFetchBatchReducesRPCs(t *testing.T) {
	w := makeWorkload(t, 9000, 6, 109)
	meta := taskMetaFromTruth(w)
	exec := ModelExecutor{Model: align.DefaultCostModel(), Meta: meta}
	rpcs := func(batch int) int64 {
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
			if _, err := RunAsync(r, in, Config{Exec: exec, MinScore: 1, FetchBatch: batch}); err != nil {
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
	one, sixteen := rpcs(1), rpcs(16)
	if sixteen >= one {
		t.Errorf("FetchBatch=16 issued %d RPCs, FetchBatch=1 issued %d", sixteen, one)
	}
	if sixteen < one/32 {
		t.Errorf("suspiciously few RPCs with batching: %d vs %d", sixteen, one)
	}
}
