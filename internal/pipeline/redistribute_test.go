package pipeline

import (
	"fmt"
	"testing"

	"gnbody/internal/core"
	"gnbody/internal/overlap"
	"gnbody/internal/partition"
	"gnbody/internal/seq"
	"gnbody/internal/workload"
)

// fetchCount is the number of distinct (rank, remote read) pairs a
// per-rank task assignment makes the read exchange move.
func fetchCount(byRank [][]overlap.Task, pt *partition.Partition) int {
	n := 0
	seen := make(map[[2]int]bool)
	for r, ts := range byRank {
		for _, t := range ts {
			for _, id := range []seq.ReadID{t.A, t.B} {
				if k := [2]int{r, int(id)}; pt.Owner(id) != r && !seen[k] {
					seen[k] = true
					n++
				}
			}
		}
	}
	return n
}

// placed runs discover on pipelineReads(2) at p ranks and returns each
// rank's tasks, their union in pair order, and the partition.
func placed(t *testing.T, p int) ([][]overlap.Task, []overlap.Task, *partition.Partition) {
	outs, pt := runDistributed(t, pipelineReads(t, 2), p, 15, 2, 60)
	byRank := make([][]overlap.Task, p)
	var all []overlap.Task
	for r, out := range outs {
		byRank[r] = out.Tasks
		all = append(all, out.Tasks...)
	}
	overlap.SortTasks(all)
	return byRank, all, pt
}

// TestRedistributeFetches holds the pipeline's distributed placement, which
// sees no task list but each rank's own (one side of each rank pair, then a
// cost repair that moves tasks freeing a fetch first), to within 10 % of
// the fetches partition.AssignTasks makes with the whole list in hand. The placement fetches 76 and 298 reads at p = 2 and 6,
// AssignTasks 80 and 326; the hash-parity split it replaced fetched 112
// and 556.
func TestRedistributeFetches(t *testing.T) {
	for _, p := range []int{2, 6} {
		byRank, all, pt := placed(t, p)
		got, aware := fetchCount(byRank, pt), fetchCount(partition.AssignTasks(all, pt), pt)
		t.Logf("p=%d: %d tasks; the placement fetches %d reads, AssignTasks %d", p, len(all), got, aware)
		if 10*got > 11*aware {
			t.Errorf("p=%d: the placement fetches %d reads, more than 1.10 x AssignTasks' %d", p, got, aware)
		}
	}
}

// TestSide checks the side rule: a task runs on the owner of one of its
// reads, whichever order it names them in, and at 6 ranks the ranks run
// 3, 2, 3, 2, 3 and 2 of their 5 rank pairs.
func TestSide(t *testing.T) {
	const p = 6
	runs := make([]int, p)
	for a := range p {
		for b := range p {
			s := side(a, b)
			if s != a && s != b || s != side(b, a) {
				t.Fatalf("side(%d, %d) = %d, side(%d, %d) = %d", a, b, s, b, a, side(b, a))
			}
			if a < b {
				runs[s]++
			}
		}
	}
	if fmt.Sprint(runs) != "[3 2 3 2 3 2]" {
		t.Errorf("ranks run %v of their rank pairs", runs)
	}
}

// TestPlacementBalancesCost holds the largest per-rank estimated kernel
// cost (core.ExpectedExtension summed over a rank's tasks) to 1.02 times
// the mean at p = 2 and 6: the repair's transfer plan balances cost, not
// task counts. About 1.000 and 1.001 on this list.
func TestPlacementBalancesCost(t *testing.T) {
	for _, p := range []int{2, 6} {
		byRank, all, _ := placed(t, p)
		lens := workload.LensOf(pipelineReads(t, 2))
		var total, most int64
		for _, ts := range byRank {
			var c int64
			for _, task := range ts {
				c += int64(core.ExpectedExtension(lens, task))
			}
			total, most = total+c, max(most, c)
		}
		ratio := float64(most) * float64(p) / float64(total)
		t.Logf("p=%d: %d tasks; largest rank cost %.4f x the mean", p, len(all), ratio)
		if ratio > 1.02 {
			t.Errorf("p=%d: largest rank cost %.4f x the mean, want at most 1.02", p, ratio)
		}
	}
}
