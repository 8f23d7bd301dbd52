// Communication-reduction acceptance: on a degree-skewed workload (hub
// reads referenced by many tasks), the remote-read cache must cut wire
// fetches at least 2x, and hierarchical aggregation must cut cross-node
// bytes — both without changing a single hit. External test package:
// workload imports core, so these tests live outside to pull in expt/dist.
package workload_test

import (
	"flag"
	"fmt"
	"reflect"
	"testing"

	"gnbody/internal/align"
	"gnbody/internal/core"
	"gnbody/internal/dist"
	"gnbody/internal/expt"
	"gnbody/internal/genome"
	"gnbody/internal/graph"
	"gnbody/internal/partition"
	"gnbody/internal/pipeline"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
	"gnbody/internal/sim"
	"gnbody/internal/workload"
)

var benchCached = flag.Bool("cached", true, "BenchmarkCommExchange: run the async passes over a persistent cache and the BSP exchanges aggregated per node")

func skewedWorkload(t testing.TB) *workload.Workload {
	t.Helper()
	w, err := workload.Synthesize(workload.EColi30x, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := workload.SortedTaskCounts(w)
	if counts[0] < 8 {
		t.Fatalf("workload not skewed enough: max read degree %d, want >= 8", counts[0])
	}
	return w
}

// runTwoPass executes the paper-style two-phase pipeline on the simulated
// machine — a candidate pass followed by a sensitive re-extension pass over
// the same reads — with an optional caller-owned per-rank cache persisting
// across the passes. Within one pass every driver already aggregates (each
// distinct remote read crosses the wire once), so the cache's win is
// exactly the re-pull a second pass would otherwise pay: with hub reads of
// degree >= 8 the hot set dominates, and a warm cache answers the entire
// second pass locally.
func runTwoPass(t testing.TB, w *workload.Workload, cached bool) (hits, wire, cacheHits int64) {
	t.Helper()
	lensInt := make([]int, len(w.Lens))
	for i, l := range w.Lens {
		lensInt[i] = int(l)
	}
	const ranks = 8
	pt, err := partition.BySize(lensInt, ranks)
	if err != nil {
		t.Fatal(err)
	}
	byRank := partition.AssignTasks(w.Tasks, pt)
	eng, err := sim.NewEngine(sim.Config{Machine: sim.CoriKNL(), Nodes: 2, RanksPerNode: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	exec := core.ModelExecutor{Model: align.DefaultCostModel(), Meta: w.Meta()}
	results := make([]*core.Result, ranks)
	pass2Results := make([]*core.Result, ranks)
	errs := make([]error, ranks)
	err = eng.Run(func(r rt.Runtime) {
		in := &core.Input{Part: pt, Lens: w.Lens, Tasks: byRank[r.Rank()],
			Codec: core.PhantomCodec{Lens: w.Lens}}
		cfg := core.Config{Exec: exec, MinScore: 1, MaxOutstanding: 8, PollEvery: 4}
		if cached {
			cfg.Cache = core.NewReadCache(-1) // persists across both passes
		}
		run := func() *core.Result {
			res, rerr := core.RunAsync(r, in, cfg)
			if rerr != nil && errs[r.Rank()] == nil {
				errs[r.Rank()] = rerr
			}
			return res
		}
		pass1 := run()
		pass2 := run()
		if pass1 != nil && pass2 != nil {
			pass1.WireFetches += pass2.WireFetches
			pass1.CacheHits += pass2.CacheHits
		}
		results[r.Rank()] = pass1
		pass2Results[r.Rank()] = pass2
	})
	if err != nil {
		t.Fatal(err)
	}
	var hits2 int64
	for rk := 0; rk < ranks; rk++ {
		if errs[rk] != nil {
			t.Fatalf("rank %d: %v", rk, errs[rk])
		}
		hits += int64(len(results[rk].Hits))
		hits2 += int64(len(pass2Results[rk].Hits))
		wire += int64(results[rk].WireFetches)
		cacheHits += int64(results[rk].CacheHits)
	}
	// The cache warms between the passes; the hit total must not move.
	if hits != hits2 {
		t.Fatalf("pass hit totals diverged: %d vs %d", hits, hits2)
	}
	return hits, wire, cacheHits
}

// TestCacheCommReductionSkewed pins the headline acceptance number: on the
// degree-skewed workload, the two-phase pipeline's wire fetches must drop
// at least 2x with the cache on, for the pull driver, without changing a
// single hit.
func TestCacheCommReductionSkewed(t *testing.T) {
	w := skewedWorkload(t)
	offHits, offWire, _ := runTwoPass(t, w, false)
	onHits, onWire, onCacheHits := runTwoPass(t, w, true)
	if onHits != offHits {
		t.Errorf("cache changed hit count: %d vs %d", onHits, offHits)
	}
	if offWire == 0 {
		t.Fatal("no remote fetches; skew test is vacuous")
	}
	if onWire*2 > offWire {
		t.Errorf("wire fetches only dropped %d -> %d, want >= 2x", offWire, onWire)
	}
	if onCacheHits+onWire != offWire {
		t.Errorf("cache hits %d + wire %d != uncached decisions %d", onCacheHits, onWire, offWire)
	}
	t.Logf("wire fetches %d -> %d (%.1fx)", offWire, onWire, float64(offWire)/float64(onWire))
}

// runDistBSP executes the model-mode BSP driver over a loopback dist world
// and reduces the tier byte counters.
func runDistBSP(t testing.TB, w *workload.Workload, p, nodeSize int, noAgg bool) (hits []core.Hit, intra, inter int64) {
	t.Helper()
	lensInt := make([]int, len(w.Lens))
	for i, l := range w.Lens {
		lensInt[i] = int(l)
	}
	pt, err := partition.BySize(lensInt, p)
	if err != nil {
		t.Fatal(err)
	}
	byRank := partition.AssignTasks(w.Tasks, pt)
	world, err := dist.NewWorld(dist.Config{P: p, NodeSize: nodeSize, NoAggregation: noAgg})
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	exec := core.ModelExecutor{Model: align.DefaultCostModel(), Meta: w.Meta()}
	results := make([]*core.Result, p)
	errs := make([]error, p)
	if err := world.Run(func(r rt.Runtime) {
		in := &core.Input{Part: pt, Lens: w.Lens, Tasks: byRank[r.Rank()],
			Codec: core.PhantomCodec{Lens: w.Lens}}
		results[r.Rank()], errs[r.Rank()] = core.RunBSP(r, in,
			core.Config{Exec: exec, MinScore: 1})
	}); err != nil {
		t.Fatal(err)
	}
	for rk := 0; rk < p; rk++ {
		if errs[rk] != nil {
			t.Fatalf("rank %d: %v", rk, errs[rk])
		}
		hits = append(hits, results[rk].Hits...)
		intra += world.Metrics(rk).IntraBytes
		inter += world.Metrics(rk).InterBytes
	}
	core.SortHits(hits)
	return hits, intra, inter
}

// runPlacedTwoPass executes the paper-style two-pass BSP pipeline (candidate
// pass + re-extension pass, optionally over an unbounded persistent cache)
// on a loopback dist world under a rank→slot placement, and reduces the
// tier byte counters.
func runPlacedTwoPass(t testing.TB, w *workload.Workload, p, nodeSize int, pl []int,
	cached, noAgg bool) (hits []core.Hit, intra, inter int64) {
	t.Helper()
	lensInt := make([]int, len(w.Lens))
	for i, l := range w.Lens {
		lensInt[i] = int(l)
	}
	pt, err := partition.BySize(lensInt, p)
	if err != nil {
		t.Fatal(err)
	}
	byRank := partition.AssignTasks(w.Tasks, pt)
	world, err := dist.NewWorld(dist.Config{P: p, NodeSize: nodeSize,
		Placement: pl, NoAggregation: noAgg})
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	exec := core.ModelExecutor{Model: align.DefaultCostModel(), Meta: w.Meta()}
	results := make([]*core.Result, p)
	errs := make([]error, p)
	if err := world.Run(func(r rt.Runtime) {
		in := &core.Input{Part: pt, Lens: w.Lens, Tasks: byRank[r.Rank()],
			Codec: core.PhantomCodec{Lens: w.Lens}}
		cfg := core.Config{Exec: exec, MinScore: 1}
		if cached {
			cfg.Cache = core.NewReadCache(-1) // persists across both passes
		}
		pass1, err1 := core.RunBSP(r, in, cfg)
		pass2, err2 := core.RunBSP(r, in, cfg)
		results[r.Rank()] = pass1
		if err1 != nil {
			errs[r.Rank()] = err1
		} else if err2 != nil {
			errs[r.Rank()] = err2
		} else if len(pass1.Hits) != len(pass2.Hits) {
			errs[r.Rank()] = fmt.Errorf("pass hit counts diverged: %d vs %d",
				len(pass1.Hits), len(pass2.Hits))
		}
	}); err != nil {
		t.Fatal(err)
	}
	for rk := 0; rk < p; rk++ {
		if errs[rk] != nil {
			t.Fatalf("rank %d: %v", rk, errs[rk])
		}
		hits = append(hits, results[rk].Hits...)
		intra += world.Metrics(rk).IntraBytes
		inter += world.Metrics(rk).InterBytes
	}
	core.SortHits(hits)
	return hits, intra, inter
}

// placementStudyWorkload builds the frozen placement acceptance workload
// (DESIGN.md §17): E. coli 30x at the reduced study density, genome-block
// scattered so consecutive-rank grouping is pessimal, still Zipf-skewed.
func placementStudyWorkload(t testing.TB, p int) *workload.Workload {
	t.Helper()
	preset := workload.EColi30x
	preset.PaperTasks = int64(preset.PaperReads) * 30 // 30 candidates a read
	w, err := workload.Synthesize(preset, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	w = workload.ScatterGenomeBlocks(w, p)
	if counts := workload.SortedTaskCounts(w); counts[0] < 8 {
		t.Fatalf("placement workload not skewed enough: max read degree %d, want >= 8", counts[0])
	}
	return w
}

// TestPlacementCommReductionSkewed pins the topology-aware placement
// acceptance number: on the scattered Zipf-skewed two-pass workload with 8
// ranks in nodes of 4, the traffic-aware placement must cut measured
// cross-node bytes by at least 25% against identity, with byte-identical
// hits — placement only regroups ranks, it never moves work or payload.
func TestPlacementCommReductionSkewed(t *testing.T) {
	const p, ns = 8, 4
	w := placementStudyWorkload(t, p)
	lensInt := make([]int, len(w.Lens))
	for i, l := range w.Lens {
		lensInt[i] = int(l)
	}
	pt, err := partition.BySize(lensInt, p)
	if err != nil {
		t.Fatal(err)
	}
	byRank := partition.AssignTasks(w.Tasks, pt)
	pairs := partition.TrafficMatrix(byRank, pt, w.Lens)
	pl := partition.PlaceByTraffic(pairs, p, ns)
	identity := true
	for q, s := range pl {
		identity = identity && q == s
	}
	if identity {
		t.Fatal("traffic-aware placement degenerated to identity; acceptance is vacuous")
	}

	idHits, idIntra, idInter := runPlacedTwoPass(t, w, p, ns, nil, false, false)
	trHits, trIntra, trInter := runPlacedTwoPass(t, w, p, ns, pl, false, false)
	if !reflect.DeepEqual(idHits, trHits) {
		t.Errorf("placement changed hits: %d vs %d", len(trHits), len(idHits))
	}
	if idIntra == 0 || idInter == 0 || trIntra == 0 || trInter == 0 {
		t.Fatalf("tier counters incomplete: id %d/%d tr %d/%d", idIntra, idInter, trIntra, trInter)
	}
	if 4*trInter > 3*idInter {
		t.Errorf("placement cut cross-node bytes only %d -> %d (%.1f%%), want >= 25%%",
			idInter, trInter, 100*(1-float64(trInter)/float64(idInter)))
	}
	t.Logf("placement %v: cross-node bytes %d -> %d (%.1f%% saved)", pl, idInter, trInter,
		100*(1-float64(trInter)/float64(idInter)))
}

// TestPlacementCacheCompose: placement composes with the remote-read cache
// without double-counting tier bytes. Under NoAggregation every rank sends
// the identical direct frames whatever the placement — only the
// intra/inter classification of each frame moves — so the *total* wire
// bytes must match exactly across placements while the split shifts, with
// the persistent cache live across both passes and hits unchanged.
func TestPlacementCacheCompose(t *testing.T) {
	const p, ns = 8, 4
	w := placementStudyWorkload(t, p)
	lensInt := make([]int, len(w.Lens))
	for i, l := range w.Lens {
		lensInt[i] = int(l)
	}
	pt, err := partition.BySize(lensInt, p)
	if err != nil {
		t.Fatal(err)
	}
	byRank := partition.AssignTasks(w.Tasks, pt)
	pl := partition.PlaceByTraffic(partition.TrafficMatrix(byRank, pt, w.Lens), p, ns)
	reversed := make([]int, p)
	for q := range reversed {
		reversed[q] = p - 1 - q
	}

	idHits, idIntra, idInter := runPlacedTwoPass(t, w, p, ns, nil, true, true)
	for name, perm := range map[string][]int{"traffic": pl, "reversed": reversed} {
		hits, intra, inter := runPlacedTwoPass(t, w, p, ns, perm, true, true)
		if !reflect.DeepEqual(idHits, hits) {
			t.Errorf("%s: placement changed hits under cache: %d vs %d", name, len(hits), len(idHits))
		}
		if intra+inter != idIntra+idInter {
			t.Errorf("%s: total wire bytes moved: %d+%d != %d+%d (placement must only reclassify)",
				name, intra, inter, idIntra, idInter)
		}
	}
	// The traffic-aware split must actually move (reversed keeps the same
	// groups at p=8/ns=4: {7..4}{3..0} is the identity grouping).
	_, trIntra, _ := runPlacedTwoPass(t, w, p, ns, pl, true, true)
	if trIntra == idIntra {
		t.Errorf("traffic placement did not shift the tier split (intra stayed %d)", idIntra)
	}
}

// TestHierCommReductionSkewed pins the other half of the exchange: with 8
// ranks in 2 nodes of 4, node-local combining must move strictly fewer
// bytes across the node boundary than the flat pairwise exchange, with
// byte-identical results.
func TestHierCommReductionSkewed(t *testing.T) {
	w := skewedWorkload(t)
	flatHits, flatIntra, flatInter := runDistBSP(t, w, 8, 4, true)
	aggHits, aggIntra, aggInter := runDistBSP(t, w, 8, 4, false)
	if !reflect.DeepEqual(flatHits, aggHits) {
		t.Errorf("aggregation changed hits: %d vs %d", len(aggHits), len(flatHits))
	}
	if flatIntra == 0 || aggIntra == 0 || flatInter == 0 || aggInter == 0 {
		t.Fatalf("tier counters incomplete: flat %d/%d agg %d/%d",
			flatIntra, flatInter, aggIntra, aggInter)
	}
	if aggInter >= flatInter {
		t.Errorf("aggregation did not reduce cross-node bytes: %d >= %d", aggInter, flatInter)
	}
	t.Logf("cross-node bytes %d -> %d (%.1f%% saved)", flatInter, aggInter,
		100*(1-float64(aggInter)/float64(flatInter)))
}

// BenchmarkCommExchange reports communication volume on the skewed
// workload as benchmark metrics: run it with -args -cached=false and
// -cached=true to compare cache-off against cache-on by hand.
func BenchmarkCommExchange(b *testing.B) {
	w := skewedWorkload(b)
	b.Run(string(expt.Async), func(b *testing.B) {
		var wire, cacheHits int64
		for i := 0; i < b.N; i++ {
			_, wire, cacheHits = runTwoPass(b, w, *benchCached)
		}
		b.ReportMetric(float64(wire), "wirefetches/op")
		b.ReportMetric(float64(cacheHits), "cachehits/op")
	})
	b.Run("dist-bsp", func(b *testing.B) {
		noAgg := !*benchCached // baseline run: flat exchange, no cache
		var inter, intra int64
		for i := 0; i < b.N; i++ {
			_, intra, inter = runDistBSP(b, w, 8, 4, noAgg)
		}
		b.ReportMetric(float64(inter), "interbytes/op")
		b.ReportMetric(float64(intra), "intrabytes/op")
	})
	b.Run("dist-assembly", func(b *testing.B) {
		noAgg := !*benchCached // baseline run: flat exchange
		var intra, inter, fetches, coal int64
		for i := 0; i < b.N; i++ {
			intra, inter, fetches, coal = runDistAssembly(b, noAgg)
		}
		b.ReportMetric(float64(inter), "interbytes/op")
		b.ReportMetric(float64(intra), "intrabytes/op")
		b.ReportMetric(float64(fetches), "graphfetches/op")
		b.ReportMetric(float64(coal), "graphcoalesced/op")
	})
}

// runDistAssembly runs the full staged chain — discover, align, string
// graph, transitive reduction, contigs — on an 8-rank dist world in nodes
// of 4, for the assembly stages' tier byte split and the neighbour-fetch
// coalescing counters alongside the overlap phase's.
func runDistAssembly(t testing.TB, noAgg bool) (intra, inter, fetches, coal int64) {
	t.Helper()
	const p, ns = 8, 4
	g := genome.Generate(genome.Config{Length: 30000, Seed: 11})
	smp, err := genome.NewSampler(g, genome.ReadConfig{
		Coverage: 8, MeanLen: 600, SigmaLog: 0.15, BothStrands: true, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	reads, _ := smp.Sample()
	lens := workload.LensOf(reads)
	plan, err := pipeline.NewPlan(lens, p, pipeline.Spec{K: 15, Lo: 2, Hi: 60})
	if err != nil {
		t.Fatal(err)
	}
	plan.Stages = []pipeline.Stage{
		pipeline.DiscoverStage{},
		pipeline.AlignStage{MinScore: 100,
			Exec: core.RealExecutor{Scoring: align.DefaultScoring(), X: 20}},
	}
	plan.Stages = append(plan.Stages, graph.AssemblyStages(0, 0, 0, "bsp", nil)...)
	world, err := dist.NewWorld(dist.Config{P: p, NodeSize: ns, NoAggregation: noAgg})
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	errs := make([]error, p)
	if err := world.Run(func(r rt.Runtime) {
		lo, hi := plan.Part.Range(r.Rank())
		st := seq.Scope(reads, lo, hi, lens)
		_, errs[r.Rank()] = plan.RunStages(r, st, nil)
	}); err != nil {
		t.Fatal(err)
	}
	for rk := 0; rk < p; rk++ {
		if errs[rk] != nil {
			t.Fatalf("rank %d: %v", rk, errs[rk])
		}
		m := world.Metrics(rk)
		intra += m.IntraBytes
		inter += m.InterBytes
		fetches += m.GraphFetches
		coal += m.GraphCoalesced
	}
	return
}
