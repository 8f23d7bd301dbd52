package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"gnbody/internal/align"
	"gnbody/internal/genome"
	"gnbody/internal/overlap"
	"gnbody/internal/par"
	"gnbody/internal/partition"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
	"gnbody/internal/sim"
)

// testWorkload bundles everything the drivers need.
type testWorkload struct {
	reads *seq.ReadSet
	tasks []overlap.Task
	truth []genome.SampledRead
}

// testCostModel prices model-executor tasks in the tests: about 2 ns a DP
// cell on a contemporary x86-64 core, band 2X+1 at X = 15.
var testCostModel = align.CostModel{PerTask: 2 * time.Microsecond, PerCell: 2 * time.Nanosecond, Band: 31, FPCells: 1500}

func makeWorkload(t *testing.T, genomeLen int, coverage float64, seed int64) *testWorkload {
	t.Helper()
	g := genome.Generate(genome.Config{Length: genomeLen, Seed: seed})
	smp, err := genome.NewSampler(g, genome.ReadConfig{
		Coverage: coverage, MeanLen: 400, SigmaLog: 0.4,
		Errors: genome.ErrorModel{Substitution: 0.02, Insertion: 0.01, Deletion: 0.01},
		Seed:   seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads, truth := smp.Sample()
	tasks, _, _, err := overlap.FromReadSet(reads, overlap.Config{K: 15, Lo: 2, Hi: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) < 20 {
		t.Fatalf("workload too sparse: %d tasks", len(tasks))
	}
	return &testWorkload{reads: reads, tasks: tasks, truth: truth}
}

func (w *testWorkload) lens() []int32 {
	out := make([]int32, w.reads.Len())
	for i := range out {
		out[i] = int32(w.reads.Reads[i].Len())
	}
	return out
}

// runReal executes a driver on the real runtime and gathers sorted hits.
func runReal(t *testing.T, w *testWorkload, p int, memBudget int64, useAsync bool, exec Executor, minScore int) ([]Hit, []*Result, *par.World) {
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
	world, err := par.NewWorld(par.Config{P: p, MemBudget: memBudget})
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*Result, p)
	errs := make([]error, p)
	world.Run(func(r rt.Runtime) {
		// Each rank gets an enforcing owner-only view of the shared read
		// set: any Get outside its partition panics the test.
		lo, hi := pt.Range(r.Rank())
		st := seq.Scope(w.reads, lo, hi, lens)
		in := &Input{
			Part:  pt,
			Lens:  lens,
			Tasks: byRank[r.Rank()],
			Codec: RealCodec{Store: st},
			Store: st,
		}
		cfg := Config{Exec: exec, MinScore: minScore, MaxOutstanding: 8}
		if useAsync {
			results[r.Rank()], errs[r.Rank()] = RunAsync(r, in, cfg)
		} else {
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
	return hits, results, world
}

func TestBSPMatchesSerial(t *testing.T) {
	w := makeWorkload(t, 8000, 6, 11)
	sc := align.DefaultScoring()
	want, err := SerialHits(w.reads, w.tasks, sc, 20, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("serial reference found no hits; workload broken")
	}
	for _, p := range []int{1, 2, 5, 8} {
		got, _, _ := runReal(t, w, p, 0, false, RealExecutor{Scoring: sc, X: 20}, 50)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("P=%d: BSP hits (%d) differ from serial (%d)", p, len(got), len(want))
		}
	}
}

func TestAsyncMatchesSerial(t *testing.T) {
	w := makeWorkload(t, 8000, 6, 13)
	sc := align.DefaultScoring()
	want, err := SerialHits(w.reads, w.tasks, sc, 20, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 3, 6} {
		got, _, _ := runReal(t, w, p, 0, true, RealExecutor{Scoring: sc, X: 20}, 50)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("P=%d: Async hits (%d) differ from serial (%d)", p, len(got), len(want))
		}
	}
}

func TestBSPMultiRoundEquivalence(t *testing.T) {
	// A tight memory budget forces multiple supersteps; the result set
	// must not change, and Supersteps must exceed the unlimited case.
	w := makeWorkload(t, 8000, 6, 17)
	sc := align.DefaultScoring()
	want, err := SerialHits(w.reads, w.tasks, sc, 20, 50)
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	gotBig, resBig, _ := runReal(t, w, p, 0, false, RealExecutor{Scoring: sc, X: 20}, 50)
	if !reflect.DeepEqual(gotBig, want) {
		t.Fatal("unlimited-memory BSP differs from serial")
	}
	// Budget: partition bytes + a little, so each round fits ~1-2 reads.
	var maxPart int64
	lens := w.lens()
	lensInt := make([]int, len(lens))
	for i, l := range lens {
		lensInt[i] = int(l)
	}
	pt, _ := partition.BySize(lensInt, p)
	for rk := 0; rk < p; rk++ {
		in := Input{Part: pt, Lens: lens}
		if b := in.PartitionBytes(rk); b > maxPart {
			maxPart = b
		}
	}
	gotTight, resTight, _ := runReal(t, w, p, maxPart+1500, false, RealExecutor{Scoring: sc, X: 20}, 50)
	if !reflect.DeepEqual(gotTight, want) {
		t.Error("memory-limited BSP differs from serial")
	}
	if resTight[0].Supersteps <= resBig[0].Supersteps {
		t.Errorf("tight budget ran %d supersteps, unlimited ran %d; want more rounds under pressure",
			resTight[0].Supersteps, resBig[0].Supersteps)
	}
	if resBig[0].Supersteps != 1 {
		t.Errorf("unlimited budget took %d supersteps, want 1", resBig[0].Supersteps)
	}
}

func TestBSPAsyncIdenticalHits(t *testing.T) {
	w := makeWorkload(t, 10000, 5, 23)
	sc := align.DefaultScoring()
	for _, p := range []int{2, 7} {
		bsp, _, _ := runReal(t, w, p, 0, false, RealExecutor{Scoring: sc, X: 15}, 30)
		asy, _, _ := runReal(t, w, p, 0, true, RealExecutor{Scoring: sc, X: 15}, 30)
		if !reflect.DeepEqual(bsp, asy) {
			t.Errorf("P=%d: BSP (%d hits) != Async (%d hits)", p, len(bsp), len(asy))
		}
	}
}

func TestCommOnlyModeProducesNoHits(t *testing.T) {
	w := makeWorkload(t, 6000, 5, 29)
	for _, useAsync := range []bool{false, true} {
		hits, results, _ := runReal(t, w, 4, 0, useAsync, NoopExecutor{}, 0)
		if len(hits) != 0 {
			t.Errorf("async=%v: comm-only mode produced %d hits", useAsync, len(hits))
		}
		tot := 0
		for _, res := range results {
			tot += res.LocalTasks + res.RemoteTasks
		}
		if tot != len(w.tasks) {
			t.Errorf("async=%v: task accounting %d != %d", useAsync, tot, len(w.tasks))
		}
	}
}

func TestOwnerInvariantViolationRejected(t *testing.T) {
	w := makeWorkload(t, 6000, 5, 31)
	lens := w.lens()
	lensInt := make([]int, len(lens))
	for i, l := range lens {
		lensInt[i] = int(l)
	}
	pt, _ := partition.BySize(lensInt, 2)
	// Find a task both of whose reads live on rank 0 and hand it to rank 1.
	var bad overlap.Task
	found := false
	for _, task := range w.tasks {
		if pt.Owner(task.A) == 0 && pt.Owner(task.B) == 0 {
			bad = task
			found = true
			break
		}
	}
	if !found {
		t.Skip("no rank-0-local task in workload")
	}
	world, _ := par.NewWorld(par.Config{P: 2})
	errs := make([]error, 2)
	world.Run(func(r rt.Runtime) {
		// Validation fails before the driver's first collective, so only
		// the offending rank calls the driver (rank 0 stays out — had
		// rank 1 proceeded past validation, rank 0 would be required at
		// the collectives).
		if r.Rank() != 1 {
			return
		}
		lo, hi := pt.Range(1)
		st := seq.Scope(w.reads, lo, hi, lens)
		in := &Input{Part: pt, Lens: lens, Tasks: []overlap.Task{bad}, Codec: RealCodec{Store: st}, Store: st}
		_, errs[1] = RunBSP(r, in, Config{Exec: NoopExecutor{}})
	})
	if errs[1] == nil {
		t.Error("owner-invariant violation not rejected")
	}
}

// Simulated back-end equivalence: the same drivers under the DES with the
// phantom codec and model executor must reproduce the model reference.
func TestSimBackendEquivalence(t *testing.T) {
	w := makeWorkload(t, 8000, 6, 37)
	lens := w.lens()
	meta := taskMetaFromTruth(w)
	want := SerialModelHits(w.tasks, meta, 100)
	if len(want) == 0 {
		t.Fatal("model reference empty")
	}
	lensInt := make([]int, len(lens))
	for i, l := range lens {
		lensInt[i] = int(l)
	}
	for _, mode := range []string{"bsp", "async"} {
		const nodes, rpn = 2, 4
		pt, err := partition.BySize(lensInt, nodes*rpn)
		if err != nil {
			t.Fatal(err)
		}
		byRank := partition.AssignTasks(w.tasks, pt)
		eng, err := sim.NewEngine(sim.Config{Machine: sim.CoriKNL(), Nodes: nodes, RanksPerNode: rpn, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		results := make([]*Result, eng.Ranks())
		errs := make([]error, eng.Ranks())
		exec := ModelExecutor{Model: testCostModel, Meta: meta}
		err = eng.Run(func(r rt.Runtime) {
			in := &Input{Part: pt, Lens: lens, Tasks: byRank[r.Rank()], Codec: PhantomCodec{Lens: lens}}
			cfg := Config{Exec: exec, MinScore: 100, MaxOutstanding: 4}
			if mode == "async" {
				results[r.Rank()], errs[r.Rank()] = RunAsync(r, in, cfg)
			} else {
				results[r.Rank()], errs[r.Rank()] = RunBSP(r, in, cfg)
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		var hits []Hit
		for rk := range results {
			if errs[rk] != nil {
				t.Fatalf("%s rank %d: %v", mode, rk, errs[rk])
			}
			hits = append(hits, results[rk].Hits...)
		}
		SortHits(hits)
		if !reflect.DeepEqual(hits, want) {
			t.Errorf("%s under sim: %d hits, reference %d", mode, len(hits), len(want))
		}
		if eng.MaxClock() <= 0 {
			t.Errorf("%s: simulated runtime is zero", mode)
		}
	}
}

// taskMetaFromTruth derives (overlap, falsePositive) from planted ground truth.
func taskMetaFromTruth(w *testWorkload) TaskMeta {
	return func(t overlap.Task) (int, bool) {
		ov := genome.TrueOverlap(w.truth[t.A], w.truth[t.B])
		return ov, ov == 0
	}
}

// Property-style sweep: random small workloads, random P, random budgets —
// BSP and Async always match the serial reference.
func TestRandomizedEquivalenceSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sc := align.DefaultScoring()
	for trial := 0; trial < 5; trial++ {
		w := makeWorkload(t, 4000+rng.Intn(6000), 4+float64(rng.Intn(3)), int64(100+trial))
		want, err := SerialHits(w.reads, w.tasks, sc, 12, 40)
		if err != nil {
			t.Fatal(err)
		}
		p := 1 + rng.Intn(8)
		budget := int64(0)
		if rng.Intn(2) == 1 {
			budget = int64(100000 + rng.Intn(400000))
		}
		bsp, _, _ := runReal(t, w, p, budget, false, RealExecutor{Scoring: sc, X: 12}, 40)
		asy, _, _ := runReal(t, w, p, budget, true, RealExecutor{Scoring: sc, X: 12}, 40)
		if !reflect.DeepEqual(bsp, want) {
			t.Errorf("trial %d (P=%d, budget=%d): BSP diverged (%d vs %d hits)", trial, p, budget, len(bsp), len(want))
		}
		if !reflect.DeepEqual(asy, want) {
			t.Errorf("trial %d (P=%d, budget=%d): Async diverged (%d vs %d hits)", trial, p, budget, len(asy), len(want))
		}
	}
}

func TestMemoryFootprintShape(t *testing.T) {
	// The async driver's high-water memory must stay near the partition
	// baseline (≤ base + MaxOutstanding reads), while single-superstep BSP
	// peaks near base + its whole exchange (Figure 11's contrast).
	w := makeWorkload(t, 12000, 6, 41)
	const p = 4
	_, bspRes, bspWorld := runReal(t, w, p, 0, false, NoopExecutor{}, 0)
	_, _, asyWorld := runReal(t, w, p, 0, true, NoopExecutor{}, 0)
	for rk := 0; rk < p; rk++ {
		bspMax := bspWorld.Metrics(rk).MaxMem
		asyMax := asyWorld.Metrics(rk).MaxMem
		if bspRes[rk].ExchangeRecvBytes > 3000 && asyMax >= bspMax {
			t.Errorf("rank %d: async MaxMem %d not below BSP MaxMem %d (exchange %d bytes)",
				rk, asyMax, bspMax, bspRes[rk].ExchangeRecvBytes)
		}
		if bspWorld.Metrics(rk).CurMem != 0 || asyWorld.Metrics(rk).CurMem != 0 {
			t.Errorf("rank %d: leaked tracked memory (bsp=%d async=%d)",
				rk, bspWorld.Metrics(rk).CurMem, asyWorld.Metrics(rk).CurMem)
		}
	}
}

func TestHitScoreThreshold(t *testing.T) {
	w := makeWorkload(t, 8000, 5, 43)
	sc := align.DefaultScoring()
	loose, _, _ := runReal(t, w, 3, 0, false, RealExecutor{Scoring: sc, X: 20}, 0)
	strict, _, _ := runReal(t, w, 3, 0, false, RealExecutor{Scoring: sc, X: 20}, 200)
	if len(strict) >= len(loose) {
		t.Errorf("minScore=200 kept %d hits, minScore=0 kept %d", len(strict), len(loose))
	}
	for _, h := range strict {
		if h.Score < 200 {
			t.Errorf("hit %v below threshold", h)
		}
	}
}

func TestSortHits(t *testing.T) {
	hs := []Hit{{A: 2, B: 1, Score: 5}, {A: 1, B: 3, Score: 2}, {A: 1, B: 2, Score: 9}}
	SortHits(hs)
	want := []Hit{{A: 1, B: 2, Score: 9}, {A: 1, B: 3, Score: 2}, {A: 2, B: 1, Score: 5}}
	if !reflect.DeepEqual(hs, want) {
		t.Errorf("SortHits = %v", hs)
	}
}

func TestPhantomCodecShapes(t *testing.T) {
	lens := []int32{10, 0, 300}
	c := PhantomCodec{Lens: lens}
	for id, l := range lens {
		buf := c.Encode(nil, seq.ReadID(id))
		if len(buf) != c.WireSize(seq.ReadID(id)) || len(buf) != seq.WireSizeOf(int(l)) {
			t.Errorf("read %d: encoded %d bytes, want %d", id, len(buf), c.WireSize(seq.ReadID(id)))
		}
		r, n, err := c.DecodeInto(nil, buf)
		if err != nil || n != len(buf) || r.ID != seq.ReadID(id) || r.Seq != nil {
			t.Errorf("read %d: decode = (%v, %d, %v)", id, r, n, err)
		}
	}
}

func TestStoreConstruction(t *testing.T) {
	lens := []int{100, 100, 100, 100}
	pt, _ := partition.BySize(lens, 2) // reads 0,1 on rank 0; 2,3 on rank 1
	in := &Input{
		Part: pt,
		Lens: []int32{100, 100, 100, 100},
		Tasks: []overlap.Task{
			{A: 0, B: 1}, // local to rank 0
			{A: 0, B: 2}, // remote read 2
			{A: 1, B: 2}, // remote read 2
			{A: 1, B: 3}, // remote read 3
		},
	}
	fs := buildFlatStore(in, 0)
	if len(fs.local) != 1 || len(fs.remote) != 3 || len(fs.groups) != 2 {
		t.Fatalf("flat store: local=%d remote=%d groups=%d", len(fs.local), len(fs.remote), len(fs.groups))
	}
	if fs.groups[0].read != 2 || len(fs.tasksOf(fs.groups[0])) != 2 {
		t.Errorf("group 0 = %+v", fs.groups[0])
	}
	ps := buildPtrStore(in, 0)
	if len(ps.local) != 1 || len(ps.order) != 2 || len(ps.byRemote[2]) != 2 || len(ps.byRemote[3]) != 1 {
		t.Errorf("ptr store: %+v", ps)
	}
	if fmt.Sprint(ps.order) != "[2 3]" {
		t.Errorf("issue order = %v", ps.order)
	}
}
