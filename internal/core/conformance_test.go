package core

import (
	"errors"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"gnbody/internal/align"
	"gnbody/internal/dist"
	"gnbody/internal/par"
	"gnbody/internal/partition"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
	"gnbody/internal/sim"
	"gnbody/internal/trace"
	"gnbody/internal/transport"
)

// The cross-backend conformance battery: one workload, every execution
// configuration — serial reference, real runtime (par), simulator (sim) and
// the message-passing backend (dist, over both the loopback and the TCP
// fabric), each under BSP and Async — must produce byte-identical
// sorted hit sets; par and sim must agree exactly on message counts, and
// dist must agree with par. Model
// mode (PhantomCodec + ModelExecutor) makes the alignment outcome
// backend-independent, so any divergence is a coordination bug, not a
// kernel difference. Tracing is enabled everywhere: the instrumentation
// must not perturb results on any back-end.

const (
	confRanks    = 8
	confMinScore = 100
	// Identical explicit budget on both back-ends (sim would otherwise
	// default MemBudget to the machine's per-core memory).
	confBudget = 64 << 10
)

type confRun struct {
	hits     []Hit
	msgs     int64
	rpcsSent int64
	oopGets  int64 // out-of-partition Store.Gets summed over ranks
	maxStore int64 // largest per-rank resident store footprint
	bytes    int64 // payload bytes sent summed over ranks
	wire     int   // remote reads actually fetched over the wire, all ranks
	evicts   int64 // cache evictions summed over ranks
}

// cacheBudget threads the remote-read cache through each backend runner:
// 0 leaves the cache off (the original battery), anything else enables it.
func runConfPar(t *testing.T, w *testWorkload, mode string, cacheBudget int64) confRun {
	t.Helper()
	lens := w.lens()
	lensInt := make([]int, len(lens))
	for i, l := range lens {
		lensInt[i] = int(l)
	}
	pt, err := partition.BySize(lensInt, confRanks)
	if err != nil {
		t.Fatal(err)
	}
	byRank := partition.AssignTasks(w.tasks, pt)
	world, err := par.NewWorld(par.Config{P: confRanks, MemBudget: confBudget,
		Tracer: trace.New(confRanks, trace.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	exec := ModelExecutor{Model: align.DefaultCostModel(), Meta: taskMetaFromTruth(w)}
	results := make([]*Result, confRanks)
	errs := make([]error, confRanks)
	world.Run(func(r rt.Runtime) {
		// Counting owner-only view over the shared read set: violations are
		// served but recorded in OOPGets, which the battery pins to zero.
		lo, hi := pt.Range(r.Rank())
		st := seq.ScopeCounting(w.reads, lo, hi, lens, &r.Metrics().OOPGets)
		in := &Input{Part: pt, Lens: lens, Tasks: byRank[r.Rank()], Codec: PhantomCodec{Lens: lens}, Store: st}
		cfg := Config{Exec: exec, MinScore: confMinScore, MaxOutstanding: 4, PollEvery: 4,
			CacheBudget: cacheBudget}
		results[r.Rank()], errs[r.Rank()] = Run(mode, r, in, cfg)
	})
	out := confRun{}
	for rk := 0; rk < confRanks; rk++ {
		if errs[rk] != nil {
			t.Fatalf("par %s rank %d: %v", mode, rk, errs[rk])
		}
		out.hits = append(out.hits, results[rk].Hits...)
		out.msgs += world.Metrics(rk).Msgs
		out.rpcsSent += world.Metrics(rk).RPCsSent
		out.oopGets += world.Metrics(rk).OOPGets
		out.bytes += world.Metrics(rk).BytesSent
		out.wire += results[rk].WireFetches
		out.evicts += world.Metrics(rk).CacheEvicts
		if sb := world.Metrics(rk).StoreBytes; sb > out.maxStore {
			out.maxStore = sb
		}
	}
	SortHits(out.hits)
	return out
}

func runConfSim(t *testing.T, w *testWorkload, mode string, cacheBudget int64) confRun {
	t.Helper()
	lens := w.lens()
	lensInt := make([]int, len(lens))
	for i, l := range lens {
		lensInt[i] = int(l)
	}
	pt, err := partition.BySize(lensInt, confRanks)
	if err != nil {
		t.Fatal(err)
	}
	byRank := partition.AssignTasks(w.tasks, pt)
	eng, err := sim.NewEngine(sim.Config{Machine: sim.CoriKNL(), Nodes: 2, RanksPerNode: confRanks / 2,
		MemBudget: confBudget, Seed: 7, Tracer: trace.New(confRanks, trace.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	exec := ModelExecutor{Model: align.DefaultCostModel(), Meta: taskMetaFromTruth(w)}
	results := make([]*Result, confRanks)
	errs := make([]error, confRanks)
	err = eng.Run(func(r rt.Runtime) {
		lo, hi := pt.Range(r.Rank())
		st := seq.ScopeCounting(w.reads, lo, hi, lens, &r.Metrics().OOPGets)
		in := &Input{Part: pt, Lens: lens, Tasks: byRank[r.Rank()], Codec: PhantomCodec{Lens: lens}, Store: st}
		cfg := Config{Exec: exec, MinScore: confMinScore, MaxOutstanding: 4, PollEvery: 4,
			CacheBudget: cacheBudget}
		results[r.Rank()], errs[r.Rank()] = Run(mode, r, in, cfg)
	})
	if err != nil {
		t.Fatalf("sim %s: %v", mode, err)
	}
	out := confRun{}
	for rk := 0; rk < confRanks; rk++ {
		if errs[rk] != nil {
			t.Fatalf("sim %s rank %d: %v", mode, rk, errs[rk])
		}
		out.hits = append(out.hits, results[rk].Hits...)
		out.msgs += eng.Metrics(rk).Msgs
		out.rpcsSent += eng.Metrics(rk).RPCsSent
		out.oopGets += eng.Metrics(rk).OOPGets
		out.bytes += eng.Metrics(rk).BytesSent
		out.wire += results[rk].WireFetches
		out.evicts += eng.Metrics(rk).CacheEvicts
		if sb := eng.Metrics(rk).StoreBytes; sb > out.maxStore {
			out.maxStore = sb
		}
	}
	SortHits(out.hits)
	return out
}

// confTCPFabric rendezvouses a p-rank localhost socket mesh.
func confTCPFabric(t testing.TB, p int) []transport.Transport {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	fabric := make([]transport.Transport, p)
	ferrs := make([]error, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := transport.TCPConfig{Addr: addr, Timeout: 30 * time.Second}
			if i == 0 {
				cfg.Listener = ln
			}
			fabric[i], ferrs[i] = transport.Rendezvous(i, p, cfg)
		}(i)
	}
	wg.Wait()
	for i, err := range ferrs {
		if err != nil {
			t.Fatalf("rendezvous rank %d: %v", i, err)
		}
	}
	return fabric
}

func runConfDist(t *testing.T, w *testWorkload, mode, fabricKind string, cacheBudget int64, nodeSize int) confRun {
	t.Helper()
	lens := w.lens()
	lensInt := make([]int, len(lens))
	for i, l := range lens {
		lensInt[i] = int(l)
	}
	pt, err := partition.BySize(lensInt, confRanks)
	if err != nil {
		t.Fatal(err)
	}
	byRank := partition.AssignTasks(w.tasks, pt)
	cfg := dist.Config{MemBudget: confBudget, NodeSize: nodeSize,
		Tracer: trace.New(confRanks, trace.Config{})}
	var world *dist.World
	if fabricKind == "tcp" {
		world, err = dist.NewWorldOver(confTCPFabric(t, confRanks), cfg)
	} else {
		cfg.P = confRanks
		world, err = dist.NewWorld(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	exec := ModelExecutor{Model: align.DefaultCostModel(), Meta: taskMetaFromTruth(w)}
	results := make([]*Result, confRanks)
	errs := make([]error, confRanks)
	gathered := make([][]Hit, confRanks)
	if err := world.Run(func(r rt.Runtime) {
		// The message-passing backend gets true physical residency: each
		// rank's store holds only its slice of the read array, so an
		// out-of-partition Get is a panic, not merely a counter tick.
		lo, hi := pt.Range(r.Rank())
		st, serr := seq.NewSliceStore(lo, w.reads.Reads[lo:hi], lens)
		if serr != nil {
			panic(serr)
		}
		in := &Input{Part: pt, Lens: lens, Tasks: byRank[r.Rank()], Codec: PhantomCodec{Lens: lens}, Store: st}
		cfg := Config{Exec: exec, MinScore: confMinScore, MaxOutstanding: 4, PollEvery: 4,
			CacheBudget: cacheBudget}
		results[r.Rank()], errs[r.Rank()] = Run(mode, r, in, cfg)
	}); err != nil {
		t.Fatalf("dist/%s %s: %v", fabricKind, mode, err)
	}
	out := confRun{}
	for rk := 0; rk < confRanks; rk++ {
		if errs[rk] != nil {
			t.Fatalf("dist/%s %s rank %d: %v", fabricKind, mode, rk, errs[rk])
		}
		out.hits = append(out.hits, results[rk].Hits...)
		out.msgs += world.Metrics(rk).Msgs
		out.rpcsSent += world.Metrics(rk).RPCsSent
		out.oopGets += world.Metrics(rk).OOPGets
		out.bytes += world.Metrics(rk).BytesSent
		out.wire += results[rk].WireFetches
		out.evicts += world.Metrics(rk).CacheEvicts
		if sb := world.Metrics(rk).StoreBytes; sb > out.maxStore {
			out.maxStore = sb
		}
	}
	SortHits(out.hits)

	// The wire-level gather must reproduce the in-memory collection exactly
	// — this is the path a true multi-process launch depends on. Done after
	// the counters above are read so driver accounting stays comparable to
	// par's.
	gerrs := make([]error, confRanks)
	if err := world.Run(func(r rt.Runtime) {
		gathered[r.Rank()], gerrs[r.Rank()] = GatherHits(r, results[r.Rank()].Hits)
	}); err != nil {
		t.Fatalf("dist/%s %s gather: %v", fabricKind, mode, err)
	}
	if err := errors.Join(gerrs...); err != nil {
		t.Fatalf("dist/%s %s gather: %v", fabricKind, mode, err)
	}
	if !reflect.DeepEqual(gathered[0], out.hits) {
		t.Fatalf("dist/%s %s: GatherHits(%d hits) differs from in-memory collection (%d)",
			fabricKind, mode, len(gathered[0]), len(out.hits))
	}
	for rk := 1; rk < confRanks; rk++ {
		if gathered[rk] != nil {
			t.Fatalf("dist/%s %s: rank %d got %d gathered hits, want nil", fabricKind, mode, rk, len(gathered[rk]))
		}
	}
	return out
}

func TestCrossBackendConformance(t *testing.T) {
	w := makeWorkload(t, 10000, 6, 53)
	want := SerialModelHits(w.tasks, taskMetaFromTruth(w), confMinScore)
	if len(want) == 0 {
		t.Fatal("serial model reference is empty; workload broken")
	}

	parRuns := map[string]confRun{}
	simRuns := map[string]confRun{}
	distLoop := map[string]confRun{}
	distTCP := map[string]confRun{}
	for _, mode := range []string{"bsp", "async"} {
		parRuns[mode] = runConfPar(t, w, mode, 0)
		simRuns[mode] = runConfSim(t, w, mode, 0)
		distLoop[mode] = runConfDist(t, w, mode, "loopback", 0, 0)
		distTCP[mode] = runConfDist(t, w, mode, "tcp", 0, 0)
	}

	// Owner-only residency holds in every configuration: no rank performed
	// an out-of-partition Get, and no rank's resident store grew to the
	// global read footprint (confRanks-way partitioning keeps each store a
	// strict subset).
	var globalBytes int64
	for i := range w.reads.Reads {
		globalBytes += int64(w.reads.Reads[i].WireSize())
	}
	for _, mode := range []string{"bsp", "async"} {
		for name, got := range map[string]confRun{
			"par": parRuns[mode], "sim": simRuns[mode],
			"dist-loopback": distLoop[mode], "dist-tcp": distTCP[mode],
		} {
			if got.oopGets != 0 {
				t.Errorf("%s/%s: %d out-of-partition Gets; owner-only residency violated", name, mode, got.oopGets)
			}
			if got.maxStore <= 0 || got.maxStore >= globalBytes {
				t.Errorf("%s/%s: per-rank store footprint %d not in (0, %d); reads replicated?",
					name, mode, got.maxStore, globalBytes)
			}
		}
	}

	// Every configuration reproduces the serial reference byte-identically.
	for _, mode := range []string{"bsp", "async"} {
		if got := parRuns[mode]; !reflect.DeepEqual(got.hits, want) {
			t.Errorf("par/%s: %d hits differ from serial reference (%d)", mode, len(got.hits), len(want))
		}
		if got := simRuns[mode]; !reflect.DeepEqual(got.hits, want) {
			t.Errorf("sim/%s: %d hits differ from serial reference (%d)", mode, len(got.hits), len(want))
		}
		if got := distLoop[mode]; !reflect.DeepEqual(got.hits, want) {
			t.Errorf("dist-loopback/%s: %d hits differ from serial reference (%d)", mode, len(got.hits), len(want))
		}
		if got := distTCP[mode]; !reflect.DeepEqual(got.hits, want) {
			t.Errorf("dist-tcp/%s: %d hits differ from serial reference (%d)", mode, len(got.hits), len(want))
		}
	}

	// Both drivers move exactly the same messages on every back-end: sim
	// and dist (both fabrics) must match par.
	for _, mode := range []string{"bsp", "async"} {
		p := parRuns[mode]
		for name, got := range map[string]confRun{
			"sim": simRuns[mode], "dist-loopback": distLoop[mode], "dist-tcp": distTCP[mode],
		} {
			if got.msgs != p.msgs {
				t.Errorf("%s: total messages par=%d %s=%d", mode, p.msgs, name, got.msgs)
			}
			if got.rpcsSent != p.rpcsSent {
				t.Errorf("%s: RPCs issued par=%d %s=%d", mode, p.rpcsSent, name, got.rpcsSent)
			}
		}
	}
	if bsp := parRuns["bsp"]; bsp.rpcsSent != 0 {
		t.Errorf("BSP issued %d RPCs; the aggregated driver should issue none", bsp.rpcsSent)
	}
	if asy := simRuns["async"]; asy.rpcsSent == 0 {
		t.Error("async issued no RPCs; remote reads were never pulled")
	}
}

// TestCachedConformance re-runs the battery's configurations with the
// remote-read cache enabled — unbounded, under a tiny eviction-forcing
// budget, and over the hierarchical dist fabric — and requires the exact
// hit set of the uncached runs while moving no more (and usually less)
// data. The cache is an optimization layer: any result difference at any
// budget on any backend is a coherence bug.
func TestCachedConformance(t *testing.T) {
	w := makeWorkload(t, 10000, 6, 53)
	want := SerialModelHits(w.tasks, taskMetaFromTruth(w), confMinScore)
	if len(want) == 0 {
		t.Fatal("serial model reference is empty; workload broken")
	}
	// tinyBudget holds a couple of plan-sized entries at most, so evictions
	// are guaranteed on this workload.
	const tinyBudget = 512
	for _, mode := range []string{"bsp", "async"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			base := runConfPar(t, w, mode, 0)
			baseSim := runConfSim(t, w, mode, 0)
			baseDist := runConfDist(t, w, mode, "loopback", 0, 0)
			for name, got := range map[string]confRun{
				"par-unbounded": runConfPar(t, w, mode, -1),
				"par-tiny":      runConfPar(t, w, mode, tinyBudget),
				"sim-unbounded": runConfSim(t, w, mode, -1),
				"sim-tiny":      runConfSim(t, w, mode, tinyBudget),
			} {
				if !reflect.DeepEqual(got.hits, want) {
					t.Errorf("%s: %d hits differ from serial reference (%d)", name, len(got.hits), len(want))
				}
				ref := base
				if name[:3] == "sim" {
					ref = baseSim
				}
				if got.wire > ref.wire {
					t.Errorf("%s: cache increased wire fetches: %d > %d", name, got.wire, ref.wire)
				}
				if got.bytes > ref.bytes {
					t.Errorf("%s: cache increased bytes sent: %d > %d", name, got.bytes, ref.bytes)
				}
			}
			if tiny := runConfPar(t, w, mode, tinyBudget); tiny.evicts == 0 {
				t.Errorf("par-tiny: %d-byte budget forced no evictions", tinyBudget)
			}
			// Hierarchical dist (2 ranks per node) with the cache on: the
			// aggregation layer must be invisible to results, and the cached
			// hierarchical run must not move more payload than the flat
			// uncached one.
			hier := runConfDist(t, w, mode, "loopback", -1, 2)
			if !reflect.DeepEqual(hier.hits, want) {
				t.Errorf("dist-hier: %d hits differ from serial reference (%d)", len(hier.hits), len(want))
			}
			if hier.wire > baseDist.wire {
				t.Errorf("dist-hier: cache increased wire fetches: %d > %d", hier.wire, baseDist.wire)
			}
		})
	}
}
