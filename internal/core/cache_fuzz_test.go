package core

import (
	"reflect"
	"testing"

	"gnbody/internal/align"
	"gnbody/internal/genome"
	"gnbody/internal/overlap"
)

// FuzzCacheEvict is the differential fuzz target for the remote-read cache:
// random workloads and random (often eviction-heavy) budgets on a
// caller-owned cache per rank, through the async driver, compared against
// the same run with the cache off. Divergent hits, divergent task bases, leaked pins, or broken counter
// invariants all fail.
func FuzzCacheEvict(f *testing.F) {
	f.Add(int64(1), int64(128), uint8(4))
	f.Add(int64(42), int64(-1), uint8(6))
	f.Add(int64(7), int64(1), uint8(5))
	f.Add(int64(99), int64(4096), uint8(3))
	f.Fuzz(func(t *testing.T, seed, budget int64, coverage uint8) {
		cov := 3 + float64(coverage%5)
		g := genome.Generate(genome.Config{Length: 4000, Seed: seed})
		smp, err := genome.NewSampler(g, genome.ReadConfig{
			Coverage: cov, MeanLen: 300, SigmaLog: 0.4,
			Errors: genome.ErrorModel{Substitution: 0.02, Insertion: 0.01, Deletion: 0.01},
			Seed:   seed + 1,
		})
		if err != nil {
			t.Skip(err)
		}
		reads, truth := smp.Sample()
		tasks, _, _, err := overlap.FromReadSet(reads, overlap.Config{K: 15, Lo: 2, Hi: 50})
		if err != nil || len(tasks) < 8 {
			t.Skip("sparse workload")
		}
		w := &testWorkload{reads: reads, tasks: tasks, truth: truth}
		sc := align.DefaultScoring()
		const p = 3
		offExec := newHashExec(RealExecutor{Scoring: sc, X: 15})
		offHits, _, _, _ := runCached(t, w, p, "async", 0, offExec, 0, false)
		onExec := newHashExec(RealExecutor{Scoring: sc, X: 15})
		hits, res, world, caches := runCached(t, w, p, "async", 0, onExec, budget, true)
		if !reflect.DeepEqual(hits, offHits) {
			t.Fatalf("budget=%d: cached hits (%d) != uncached (%d)",
				budget, len(hits), len(offHits))
		}
		if !reflect.DeepEqual(onExec.sums, offExec.sums) {
			t.Fatalf("budget=%d: cached run fed different bases", budget)
		}
		for rk := 0; rk < p; rk++ {
			m := world.Metrics(rk)
			if misses := caches[rk].Stats().Misses; int(misses) != res[rk].WireFetches {
				t.Fatalf("budget=%d rank %d: misses %d != wire fetches %d",
					budget, rk, misses, res[rk].WireFetches)
			}
			if caches[rk].PinnedBytes() != 0 {
				t.Fatalf("budget=%d rank %d: %d pinned bytes leaked",
					budget, rk, caches[rk].PinnedBytes())
			}
			if m.CurMem != 0 {
				t.Fatalf("budget=%d rank %d: %d tracked bytes leaked",
					budget, rk, m.CurMem)
			}
		}
	})
}
