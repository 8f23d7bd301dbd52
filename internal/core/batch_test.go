package core

import (
	"math/bits"
	"reflect"
	"testing"

	"gnbody/internal/align"
)

// TestBatchOrderInvariance is the batching property test (DESIGN.md §3):
// length-bucketed execution must produce the identical hit set — same
// alignments, same scores, same extents after the canonical SortHits — as
// SerialHits, which runs every task in discovery order with no batcher,
// under every driver and rank count. Batching is a schedule, not a
// semantic.
func TestBatchOrderInvariance(t *testing.T) {
	w := makeWorkload(t, 3000, 12, 77)
	sc := align.DefaultScoring()
	plain, err := SerialHits(w.reads, w.tasks, sc, 15, 40)
	if err != nil {
		t.Fatal(err)
	}
	exec := RealExecutor{Scoring: sc, X: 15}
	for _, driver := range []string{"bsp", "async"} {
		for _, p := range []int{1, 3} {
			batched, _ := runRealMode(t, w, p, driver, exec, Config{MinScore: 40})
			if !reflect.DeepEqual(batched, plain) {
				t.Errorf("%s p=%d: batched hits differ from discovery order (%d vs %d hits)",
					driver, p, len(batched), len(plain))
			}
		}
	}
}

// TestBatchPlanDeterministic pins the scheduler itself: the permutation
// is a stable counting sort by length bucket — buckets ascending, original
// order within a bucket — and replanning the same group reproduces it.
func TestBatchPlanDeterministic(t *testing.T) {
	w := makeWorkload(t, 3000, 12, 78)
	in := &Input{Lens: w.lens(), Tasks: w.tasks}
	var bt batcher
	bt.loadFlat(w.tasks)
	bt.plan(in)
	n := len(bt.tasks)
	got := append([]int32(nil), bt.order[:n]...)

	// Replan: identical permutation.
	bt.loadFlat(w.tasks)
	bt.plan(in)
	if !reflect.DeepEqual(got, bt.order[:n]) {
		t.Fatal("replanning the same group changed the permutation")
	}

	// Valid permutation, bucket-sorted, stable within buckets.
	seen := make([]bool, n)
	prevKey, prevIdx := -1, -1
	for _, oi := range got {
		if oi < 0 || int(oi) >= n || seen[oi] {
			t.Fatalf("order is not a permutation: index %d", oi)
		}
		seen[oi] = true
		k := bits.Len(uint(ExpectedExtension(in.Lens, w.tasks[oi])))
		if k < prevKey {
			t.Fatalf("bucket order violated: key %d after %d", k, prevKey)
		}
		if k > prevKey {
			prevKey, prevIdx = k, -1
		}
		if int(oi) < prevIdx {
			t.Fatalf("stability violated inside bucket %d: %d after %d", k, oi, prevIdx)
		}
		prevIdx = int(oi)
	}
}
