package pipeline

import (
	"testing"

	"gnbody/internal/overlap"
	"gnbody/internal/partition"
	"gnbody/internal/seq"
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

// TestRedistributeFetches sizes the gap between the pipeline's
// distributed redistribute, which picks each task's side by a hash and
// one count-refinement round with no global view of read degrees, and
// partition.AssignTasks on the same task list. The fetch-aware rule must
// not fetch more; the logged counts are the ones ROADMAP quotes.
func TestRedistributeFetches(t *testing.T) {
	reads := pipelineReads(t, 2)
	for _, p := range []int{2, 6} {
		outs, pt := runDistributed(t, reads, p, 15, 2, 60)
		byRank := make([][]overlap.Task, p)
		var all []overlap.Task
		for r, out := range outs {
			byRank[r] = out.Tasks
			all = append(all, out.Tasks...)
		}
		overlap.SortTasks(all)
		got, aware := fetchCount(byRank, pt), fetchCount(partition.AssignTasks(all, pt), pt)
		t.Logf("p=%d: %d tasks; redistribute fetches %d reads, AssignTasks %d (%.1f%%)",
			p, len(all), got, aware, 100*float64(aware)/float64(got))
		if aware > got {
			t.Errorf("p=%d: AssignTasks fetches %d reads, more than redistribute's %d", p, aware, got)
		}
	}
}
