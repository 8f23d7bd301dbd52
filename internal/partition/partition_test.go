package partition_test

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"gnbody/internal/overlap"
	"gnbody/internal/partition"
	"gnbody/internal/seq"
)

func TestBySizeValidation(t *testing.T) {
	if _, err := partition.BySize([]int{1, 2}, 0); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := partition.BySize(nil, 4); err != nil {
		t.Errorf("empty read set rejected: %v", err)
	}
}

func TestBySizeCoversAllReads(t *testing.T) {
	f := func(rawLens []uint16, praw uint8) bool {
		p := int(praw%16) + 1
		lens := make([]int, len(rawLens))
		for i, l := range rawLens {
			lens[i] = int(l % 5000)
		}
		pt, err := partition.BySize(lens, p)
		if err != nil {
			return false
		}
		// Blocks are contiguous, non-overlapping, and cover [0, n).
		prev := 0
		for r := 0; r < p; r++ {
			lo, hi := pt.Range(r)
			if lo != prev || hi < lo {
				return false
			}
			prev = hi
		}
		if prev != len(lens) {
			return false
		}
		// Owner agrees with Range.
		for i := range lens {
			o := pt.Owner(seq.ReadID(i))
			lo, hi := pt.Range(o)
			if i < lo || i >= hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBySizeBalance(t *testing.T) {
	// Uniform lengths: every block's byte load must be within one read of
	// the ideal share.
	lens := make([]int, 1000)
	for i := range lens {
		lens[i] = 100
	}
	pt, err := partition.BySize(lens, 8)
	if err != nil {
		t.Fatal(err)
	}
	loads := pt.Loads(lens)
	if imb := partition.Imbalance(loads); imb > 1.01 {
		t.Errorf("uniform-length imbalance = %.3f, want ≈1", imb)
	}
	// Highly skewed lengths: the partitioner balances bytes, so block
	// loads stay within (max read size) of each other.
	rng := rand.New(rand.NewSource(1))
	lens = lens[:0]
	for i := 0; i < 2000; i++ {
		lens = append(lens, 100+rng.Intn(20000))
	}
	pt, err = partition.BySize(lens, 16)
	if err != nil {
		t.Fatal(err)
	}
	loads = pt.Loads(lens)
	var min, max int64 = 1 << 62, 0
	for _, l := range loads {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if max-min > 2*20108 { // two max wire sizes of slack
		t.Errorf("byte loads spread %d too wide (min=%d max=%d)", max-min, min, max)
	}
}

func TestBySizeMoreRanksThanReads(t *testing.T) {
	pt, err := partition.BySize([]int{10, 20}, 5)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	total := 0
	for r := 0; r < 5; r++ {
		lo, hi := pt.Range(r)
		total += hi - lo
		for i := lo; i < hi; i++ {
			if seen[i] {
				t.Errorf("read %d owned twice", i)
			}
			seen[i] = true
		}
	}
	if total != 2 {
		t.Errorf("covered %d reads, want 2", total)
	}
}

func TestAssignTasksOwnerInvariant(t *testing.T) {
	f := func(pairsRaw []uint16, praw uint8) bool {
		p := int(praw%8) + 1
		n := 64
		lens := make([]int, n)
		for i := range lens {
			lens[i] = 100
		}
		pt, err := partition.BySize(lens, p)
		if err != nil {
			return false
		}
		var tasks []overlap.Task
		for i := 0; i+1 < len(pairsRaw); i += 2 {
			a := seq.ReadID(pairsRaw[i] % uint16(n))
			b := seq.ReadID(pairsRaw[i+1] % uint16(n))
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			tasks = append(tasks, overlap.Task{A: a, B: b})
		}
		byRank := partition.AssignTasks(tasks, pt)
		count := 0
		for r, ts := range byRank {
			for _, task := range ts {
				count++
				if pt.Owner(task.A) != r && pt.Owner(task.B) != r {
					return false // owner invariant violated
				}
			}
		}
		return count == len(tasks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAssignTasksBalance(t *testing.T) {
	// All pairs across two halves: the greedy count balancer must land
	// within 1 task of even.
	lens := make([]int, 100)
	for i := range lens {
		lens[i] = 50
	}
	pt, err := partition.BySize(lens, 2)
	if err != nil {
		t.Fatal(err)
	}
	var tasks []overlap.Task
	for a := 0; a < 50; a++ {
		for b := 50; b < 100; b++ {
			tasks = append(tasks, overlap.Task{A: seq.ReadID(a), B: seq.ReadID(b)})
		}
	}
	byRank := partition.AssignTasks(tasks, pt)
	d := len(byRank[0]) - len(byRank[1])
	if d < -1 || d > 1 {
		t.Errorf("task counts %d vs %d, want within 1", len(byRank[0]), len(byRank[1]))
	}
}

func TestImbalance(t *testing.T) {
	if got := partition.Imbalance([]int64{10, 10, 10}); got != 1 {
		t.Errorf("balanced = %v, want 1", got)
	}
	if got := partition.Imbalance([]int64{0, 0, 30}); got != 3 {
		t.Errorf("one-hot = %v, want 3", got)
	}
	if got := partition.Imbalance(nil); got != 1 {
		t.Errorf("empty = %v, want 1", got)
	}
	if got := partition.Imbalance([]int64{0, 0}); got != 1 {
		t.Errorf("all-zero = %v, want 1", got)
	}
}

// blindAssign is the count-only rule AssignTasks replaced, kept as the
// oracle its fetch counts and balance are measured against: tasks are
// visited in a hash order, each taking the lighter of its two owners, then
// a few refinement passes move tasks from the heavier to the lighter of
// their owners. Output order within each rank follows input order.
func blindAssign(tasks []overlap.Task, pt *partition.Partition) [][]overlap.Task {
	n := len(tasks)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return splitmix64(tasks[order[i]].Key()) < splitmix64(tasks[order[j]].Key())
	})
	assign := make([]int32, n)
	counts := make([]int, pt.P)
	for _, i := range order {
		t := tasks[i]
		ra, rb := pt.Owner(t.A), pt.Owner(t.B)
		r := ra
		if rb != ra && (counts[rb] < counts[ra] || (counts[rb] == counts[ra] && rb < ra)) {
			r = rb
		}
		assign[i] = int32(r)
		counts[r]++
	}
	for pass := 0; pass < 3; pass++ {
		moved := false
		for _, i := range order {
			t := tasks[i]
			ra, rb := pt.Owner(t.A), pt.Owner(t.B)
			if ra == rb {
				continue
			}
			cur := int(assign[i])
			alt := ra
			if cur == ra {
				alt = rb
			}
			if counts[cur] > counts[alt]+1 {
				counts[cur]--
				counts[alt]++
				assign[i] = int32(alt)
				moved = true
			}
		}
		if !moved {
			break
		}
	}
	out := make([][]overlap.Task, pt.P)
	for i, t := range tasks {
		out[assign[i]] = append(out[assign[i]], t)
	}
	return out
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
