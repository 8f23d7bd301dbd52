package core

import (
	"hash/fnv"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"gnbody/internal/align"
	"gnbody/internal/overlap"
	"gnbody/internal/par"
	"gnbody/internal/partition"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
)

// --- ReadCache unit and property tests ---

func TestCacheLRUEviction(t *testing.T) {
	c := NewReadCache(100)
	for id := 0; id < 3; id++ {
		c.Insert(seq.ReadID(id), seq.Seq{seq.Base(id)}, 40, 0)
	}
	if c.Bytes() > 100 {
		t.Errorf("bytes %d over budget", c.Bytes())
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Stats().Evictions)
	}
	if _, ok := c.Acquire(0, 1); ok {
		t.Error("oldest entry survived eviction")
	}
	if _, ok := c.Acquire(2, 1); !ok {
		t.Error("newest entry evicted")
	}
	c.Release(2, 1)
	// Touching 1 then inserting must evict 2, not the freshly-used 1.
	if _, ok := c.Acquire(1, 1); !ok {
		t.Fatal("entry 1 missing")
	}
	c.Release(1, 1)
	c.Insert(5, nil, 40, 0)
	if _, ok := c.Acquire(1, 1); !ok {
		t.Error("recently-used entry evicted before older one")
	} else {
		c.Release(1, 1)
	}
	if _, ok := c.Acquire(2, 1); ok {
		t.Error("LRU entry not the one evicted")
	}
}

func TestCachePinnedNeverEvicted(t *testing.T) {
	c := NewReadCache(50)
	// Three pinned entries blow far past the budget; none may go.
	for id := 0; id < 3; id++ {
		c.Insert(seq.ReadID(id), nil, 40, 2)
	}
	if c.Len() != 3 || c.Stats().Evictions != 0 {
		t.Fatalf("pinned entries evicted: len=%d evictions=%d", c.Len(), c.Stats().Evictions)
	}
	if c.PinnedBytes() != 120 || c.Bytes() != 120 {
		t.Fatalf("pinned=%d bytes=%d, want 120/120", c.PinnedBytes(), c.Bytes())
	}
	// Dropping pins makes entries evictable; the bound is then enforced.
	c.Release(0, 2)
	c.Release(1, 2)
	if c.Bytes() != 40 || c.PinnedBytes() != 40 {
		t.Errorf("after releases: bytes=%d pinned=%d, want 40/40", c.Bytes(), c.PinnedBytes())
	}
	c.Release(2, 2)
	if c.Bytes() > 50 {
		t.Errorf("budget not enforced after last release: %d", c.Bytes())
	}
	if c.PinnedBytes() != 0 {
		t.Errorf("pinned bytes %d after all releases", c.PinnedBytes())
	}
}

func TestCacheReleaseUnmatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unmatched Release did not panic")
		}
	}()
	c := NewReadCache(0)
	c.Insert(1, nil, 10, 1)
	c.Release(1, 2)
}

// TestCacheRandomizedInvariants drives random legal op sequences against a
// mirror model and asserts the structural invariants after every step:
// accounted bytes match, pinned bytes match, and the budget only ever
// overshoots when everything left is pinned.
func TestCacheRandomizedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		budget := int64(1 + rng.Intn(500))
		c := NewReadCache(budget)
		type ent struct {
			cost int64
			pins int
		}
		model := map[seq.ReadID]*ent{}
		var hits, misses int64
		for op := 0; op < 400; op++ {
			id := seq.ReadID(rng.Intn(30))
			switch rng.Intn(3) {
			case 0: // Acquire
				pins := 1 + rng.Intn(3)
				_, ok := c.Acquire(id, pins)
				if e, live := model[id]; live {
					if !ok {
						t.Fatalf("trial %d: cached id %d missed", trial, id)
					}
					e.pins += pins
					hits++
				} else {
					if ok {
						t.Fatalf("trial %d: uncached id %d hit", trial, id)
					}
					misses++
				}
			case 1: // Insert (drivers insert only after a miss, but dup
				// inserts from coalesced paths are legal and add pins)
				pins := rng.Intn(3)
				cost := int64(1 + rng.Intn(120))
				if e, live := model[id]; live {
					c.Insert(id, nil, cost, pins)
					e.pins += pins
				} else {
					c.Insert(id, nil, cost, pins)
					model[id] = &ent{cost: cost, pins: pins}
				}
			case 2: // Release one pin somewhere legal
				for rid, e := range model {
					if e.pins > 0 {
						c.Release(rid, 1)
						e.pins--
						break
					}
				}
			}
			// The cache evicts only unpinned entries; mirror that: any id
			// the cache no longer knows must have been unpinned.
			var bytes, pinned int64
			for rid, e := range model {
				if _, ok := c.entries[rid]; !ok {
					if e.pins > 0 {
						t.Fatalf("trial %d op %d: pinned id %d evicted", trial, op, rid)
					}
					delete(model, rid)
					continue
				}
				bytes += e.cost
				if e.pins > 0 {
					pinned += e.cost
				}
			}
			if c.Bytes() != bytes || c.PinnedBytes() != pinned {
				t.Fatalf("trial %d op %d: cache bytes=%d pinned=%d, model %d/%d",
					trial, op, c.Bytes(), c.PinnedBytes(), bytes, pinned)
			}
			if c.Bytes() > budget && c.Bytes() != c.PinnedBytes() {
				t.Fatalf("trial %d op %d: over budget (%d > %d) with unpinned entries",
					trial, op, c.Bytes(), budget)
			}
		}
		st := c.Stats()
		if st.Hits != hits || st.Misses != misses {
			t.Fatalf("trial %d: stats hits=%d misses=%d, model %d/%d",
				trial, st.Hits, st.Misses, hits, misses)
		}
		c.ReleaseAll()
		if c.PinnedBytes() != 0 || c.Bytes() > budget {
			t.Fatalf("trial %d: teardown left pinned=%d bytes=%d", trial, c.PinnedBytes(), c.Bytes())
		}
	}
}

// TestCacheAllocFreeHitPath pins the hot path: a cache hit and its release
// must not allocate (the whole point is removing per-task wire and copy
// costs, not trading them for GC pressure).
func TestCacheAllocFreeHitPath(t *testing.T) {
	c := NewReadCache(0)
	c.Insert(1, seq.Seq{1, 2, 3}, 64, 0)
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := c.Acquire(1, 1); !ok {
			t.Fatal("hit path missed")
		}
		c.Release(1, 1)
	}); n != 0 {
		t.Errorf("Acquire/Release hit path allocates %.1f times per op", n)
	}
}

// --- driver coherence battery ---

// hashExec wraps an executor and records an FNV hash of every task's base
// pair. Comparing the maps between a cached and an uncached run proves the
// cache serves bases byte-identical to a fresh pull. The map is shared by
// all ranks, hence the mutex.
type hashExec struct {
	inner Executor
	mu    sync.Mutex
	sums  map[uint64]uint64
}

func newHashExec(inner Executor) *hashExec {
	return &hashExec{inner: inner, sums: make(map[uint64]uint64)}
}

func baseBytes(s seq.Seq) []byte {
	out := make([]byte, len(s))
	for i, b := range s {
		out[i] = byte(b)
	}
	return out
}

func (h *hashExec) Align(r rt.Runtime, task overlap.Task, a, b seq.Seq) (align.Result, bool) {
	f := fnv.New64a()
	f.Write(baseBytes(a))
	f.Write([]byte{0xff})
	f.Write(baseBytes(b))
	h.mu.Lock()
	h.sums[task.Key()] = f.Sum64()
	h.mu.Unlock()
	return h.inner.Align(r, task, a, b)
}

// runCached executes one driver over the par backend with per-rank caches
// the test retains for post-run inspection (cacheOn false: no cache).
func runCached(t *testing.T, w *testWorkload, p int, mode string, fetchBatch int, exec Executor,
	budget int64, cacheOn bool) ([]Hit, []*Result, *par.World, []*ReadCache) {
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
	var caches []*ReadCache
	if cacheOn {
		caches = make([]*ReadCache, p)
		for i := range caches {
			caches[i] = NewReadCache(budget)
		}
	}
	results := make([]*Result, p)
	errs := make([]error, p)
	world.Run(func(r rt.Runtime) {
		lo, hi := pt.Range(r.Rank())
		st := seq.Scope(w.reads, lo, hi, lens)
		in := &Input{Part: pt, Lens: lens, Tasks: byRank[r.Rank()],
			Codec: RealCodec{Store: st}, Store: st}
		cfg := Config{Exec: exec, MinScore: 50, MaxOutstanding: 8, FetchBatch: fetchBatch}
		if cacheOn {
			cfg.Cache = caches[r.Rank()]
		}
		results[r.Rank()], errs[r.Rank()] = Run(mode, r, in, cfg)
	})
	var hits []Hit
	for rk := 0; rk < p; rk++ {
		if errs[rk] != nil {
			t.Fatalf("%s rank %d: %v", mode, rk, errs[rk])
		}
		if n := results[rk].unreturned; n != 0 {
			t.Errorf("%s rank %d: %d scratch buffers or batchers checked out and never returned", mode, rk, n)
		}
		hits = append(hits, results[rk].Hits...)
	}
	SortHits(hits)
	return hits, results, world, caches
}

// TestCacheCoherenceBattery is the lock-down: for every driver, a cached
// run (unbounded, and with a tiny eviction-forcing budget) must produce
// bitwise-identical hits and byte-identical task inputs to the uncached
// run, never fetch more over the wire than the uncached run, and satisfy
// the counting invariants that make the hit/miss numbers trustworthy. The
// asynchronous driver runs it again with four reads to a request; every run, cached or not, must also hand back each scratch
// buffer and batcher it checked out (runCached asserts it).
func TestCacheCoherenceBattery(t *testing.T) {
	w := makeWorkload(t, 10000, 6, 47)
	sc := align.DefaultScoring()
	const p = 4
	for _, mode := range []string{"bsp", "async"} {
		battery := func(t *testing.T, fetchBatch int) {
			offExec := newHashExec(RealExecutor{Scoring: sc, X: 15})
			offHits, offRes, _, _ := runCached(t, w, p, mode, fetchBatch, offExec, 0, false)
			var offWire int
			for _, res := range offRes {
				offWire += res.WireFetches
			}
			if offWire == 0 {
				t.Fatal("workload has no remote fetches; battery is vacuous")
			}
			for _, tc := range []struct {
				name   string
				budget int64
			}{{"unbounded", -1}, {"tiny", 256}} {
				t.Run(tc.name, func(t *testing.T) {
					onExec := newHashExec(RealExecutor{Scoring: sc, X: 15})
					hits, res, world, caches := runCached(t, w, p, mode, fetchBatch, onExec, tc.budget, true)
					if !reflect.DeepEqual(hits, offHits) {
						t.Errorf("cached hits (%d) differ from uncached (%d)", len(hits), len(offHits))
					}
					// Byte-identical bases for every task, not just same scores.
					if !reflect.DeepEqual(onExec.sums, offExec.sums) {
						t.Error("cached run fed different bases to at least one task")
					}
					var wire, evicts int
					for rk := 0; rk < p; rk++ {
						m := world.Metrics(rk)
						st := caches[rk].Stats()
						r := res[rk]
						wire += r.WireFetches
						evicts += int(st.Evictions)
						// Misses are counted inside the cache, wire fetches at
						// the call sites: their equality is the coherence of
						// the whole decision path.
						if int(st.Misses) != r.WireFetches {
							t.Errorf("rank %d: cache misses %d != WireFetches %d",
								rk, st.Misses, r.WireFetches)
						}
						if int(st.Hits) != r.CacheHits {
							t.Errorf("rank %d: cache hits %d != result %d",
								rk, st.Hits, r.CacheHits)
						}
						if r.CacheHits+r.WireFetches != r.RemoteReads {
							t.Errorf("rank %d: hits %d + wire %d != distinct remote reads %d",
								rk, r.CacheHits, r.WireFetches, r.RemoteReads)
						}
						if caches[rk].PinnedBytes() != 0 {
							t.Errorf("rank %d: %d pinned bytes leaked", rk, caches[rk].PinnedBytes())
						}
						if m.CurMem != 0 {
							t.Errorf("rank %d: %d tracked bytes leaked", rk, m.CurMem)
						}
					}
					if wire > offWire {
						t.Errorf("cache increased wire fetches: %d > %d", wire, offWire)
					}
					if tc.budget < 0 && evicts != 0 {
						t.Errorf("unbounded cache evicted %d entries", evicts)
					}
					if tc.budget > 0 && evicts == 0 {
						t.Errorf("256-byte budget forced no evictions (wire=%d)", wire)
					}
				})
			}
		}
		t.Run(mode, func(t *testing.T) {
			battery(t, 1)
			if mode != "bsp" {
				t.Run("batch4", func(t *testing.T) { battery(t, 4) })
			}
		})
	}
}

// TestCacheCrossRunReuse checks the cross-Run payoff: a caller-owned cache
// persists, so a second run over the same inputs answers every pull from
// the cache and never touches the wire.
func TestCacheCrossRunReuse(t *testing.T) {
	w := makeWorkload(t, 8000, 6, 53)
	sc := align.DefaultScoring()
	const p = 4
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
	caches := make([]*ReadCache, p)
	for i := range caches {
		caches[i] = NewReadCache(-1)
	}
	run := func() ([]Hit, int) {
		results := make([]*Result, p)
		errs := make([]error, p)
		world.Run(func(r rt.Runtime) {
			lo, hi := pt.Range(r.Rank())
			st := seq.Scope(w.reads, lo, hi, lens)
			in := &Input{Part: pt, Lens: lens, Tasks: byRank[r.Rank()],
				Codec: RealCodec{Store: st}, Store: st}
			cfg := Config{Exec: RealExecutor{Scoring: sc, X: 15}, MinScore: 50,
				MaxOutstanding: 8, Cache: caches[r.Rank()]}
			results[r.Rank()], errs[r.Rank()] = RunAsync(r, in, cfg)
		})
		var hits []Hit
		wire := 0
		for rk := 0; rk < p; rk++ {
			if errs[rk] != nil {
				t.Fatalf("rank %d: %v", rk, errs[rk])
			}
			hits = append(hits, results[rk].Hits...)
			wire += results[rk].WireFetches
		}
		SortHits(hits)
		return hits, wire
	}
	first, wire1 := run()
	second, wire2 := run()
	if wire1 == 0 {
		t.Fatal("first run fetched nothing; test is vacuous")
	}
	if wire2 != 0 {
		t.Errorf("second run went to the wire %d times with a warm cache", wire2)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("warm-cache run produced different hits (%d vs %d)", len(second), len(first))
	}
}
