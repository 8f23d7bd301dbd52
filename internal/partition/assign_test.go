package partition_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gnbody/internal/overlap"
	"gnbody/internal/partition"
	"gnbody/internal/seq"
	"gnbody/internal/workload"
)

// exchangePreset is the benchmark's exchange-tcp task graph: 4 000 reads
// of median 10 kb at 1.5x coverage, five tasks a read, most of them
// Zipf-skewed onto hub reads, synthesized as benchmark/inputs.go does.
func exchangePreset(seed int64) (*workload.Workload, error) {
	const medianLen, coverage, tasksPerRead = 10000, 1.5, 5
	reads := 4000
	preset := workload.Preset{
		Name: "exchange", PaperReads: reads, PaperTasks: int64(reads) * tasksPerRead,
		GenomeLen: int64(float64(reads) * medianLen / coverage), Coverage: coverage,
		ErrRate: 0.15, MeanLen: medianLen, SigmaLog: 0.35, RepeatMax: 700,
	}
	return workload.Synthesize(preset, 1, seed*1_000_003+3)
}

// assignCase is one task graph under a size-balanced partition.
type assignCase struct {
	name  string
	w     *workload.Workload
	pt    *partition.Partition
	tasks []overlap.Task
}

func newAssignCase(t testing.TB, name string, w *workload.Workload, p int) assignCase {
	t.Helper()
	lens := make([]int, len(w.Lens))
	for i, l := range w.Lens {
		lens[i] = int(l)
	}
	pt, err := partition.BySize(lens, p)
	if err != nil {
		t.Fatal(err)
	}
	return assignCase{name: fmt.Sprintf("%s/P=%d", name, p), w: w, pt: pt, tasks: w.Tasks}
}

// assignStats are the figures of merit of one assignment: distinct
// (rank, remote read) fetches, the largest per-rank task count, and the
// largest planned inbound bytes of any rank (the traffic matrix's column
// sums).
type assignStats struct {
	fetches, maxTasks int
	maxInbound        int64
}

func statsOf(byRank [][]overlap.Task, pt *partition.Partition, lens []int32) assignStats {
	var s assignStats
	fetchedBy := make([]int, len(lens)) // rank+1 of the last rank seen fetching each read
	for r, ts := range byRank {
		s.maxTasks = max(s.maxTasks, len(ts))
		lo, hi := pt.Range(r)
		for _, task := range ts {
			for _, id := range []seq.ReadID{task.A, task.B} {
				if (int(id) < lo || int(id) >= hi) && fetchedBy[id] != r+1 {
					fetchedBy[id] = r + 1
					s.fetches++
				}
			}
		}
	}
	inbound := make([]int64, pt.P)
	for _, e := range partition.TrafficMatrix(byRank, pt, lens) {
		inbound[e.Dst] += e.Bytes
	}
	s.maxInbound = slices.Max(inbound)
	return s
}

// tableCases are the exchange preset and the three Table-1 presets at 700
// to 1 100 reads each, at every rank count the figures use.
func tableCases(t testing.TB) []assignCase {
	t.Helper()
	ex, err := exchangePreset(1)
	if err != nil {
		t.Fatal(err)
	}
	ws := []struct {
		name string
		w    *workload.Workload
	}{{"exchange", ex}}
	for _, pc := range []struct {
		p     workload.Preset
		scale int
	}{{workload.EColi30x, 16}, {workload.EColi100x, 128}, {workload.HumanCCS, 1024}} {
		w, err := workload.Synthesize(pc.p, pc.scale, 1)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, struct {
			name string
			w    *workload.Workload
		}{pc.p.Name, w})
	}
	var cases []assignCase
	for _, w := range ws {
		for _, p := range []int{2, 4, 8, 64, 512} {
			cases = append(cases, newAssignCase(t, w.name, w.w, p))
		}
	}
	return cases
}

// TestAssignTasksBeatsBlind: on every preset and rank count the fetch-aware
// rule fetches no more reads than the blind rule, no rank pulls more
// planned bytes than the blind rule's busiest, and the largest task count
// stays within one task or 1 % of the blind rule's.
func TestAssignTasksBeatsBlind(t *testing.T) {
	for _, c := range tableCases(t) {
		got := statsOf(partition.AssignTasks(c.tasks, c.pt), c.pt, c.w.Lens)
		blind := statsOf(blindAssign(c.tasks, c.pt), c.pt, c.w.Lens)
		t.Logf("%-18s fetches %6d blind %6d (%5.1f%%)  max tasks %6d blind %6d  max inbound %9d blind %9d",
			c.name, got.fetches, blind.fetches, 100*float64(got.fetches)/float64(blind.fetches),
			got.maxTasks, blind.maxTasks, got.maxInbound, blind.maxInbound)
		if got.fetches > blind.fetches {
			t.Errorf("%s: %d fetches, blind rule %d", c.name, got.fetches, blind.fetches)
		}
		if got.maxTasks > max(blind.maxTasks+1, blind.maxTasks*101/100) {
			t.Errorf("%s: max %d tasks a rank, blind rule %d", c.name, got.maxTasks, blind.maxTasks)
		}
		if got.maxInbound > blind.maxInbound {
			t.Errorf("%s: max %d inbound bytes a rank, blind rule %d", c.name, got.maxInbound, blind.maxInbound)
		}
	}
}

// tinyCase is a random instance of n reads over p ranks with the given
// number of tasks, every one distinct (Seed.PosA carries its index).
func tinyCase(rng *rand.Rand, n, p, tasks int) (*partition.Partition, []overlap.Task, []int32) {
	lens := make([]int, n)
	lens32 := make([]int32, n)
	for i := range lens {
		lens[i] = 50 + rng.Intn(400)
		lens32[i] = int32(lens[i])
	}
	pt, _ := partition.BySize(lens, p)
	ts := make([]overlap.Task, 0, tasks)
	for len(ts) < tasks {
		a, b := seq.ReadID(rng.Intn(n)), seq.ReadID(rng.Intn(n))
		if a == b {
			continue
		}
		ts = append(ts, overlap.Task{A: min(a, b), B: max(a, b), Seed: overlap.Seed{PosA: int32(len(ts))}})
	}
	return pt, ts, lens32
}

// TestAssignTasksNearOptimum compares the greedy cover and repair with
// the exhaustive optimum on instances of at most 14 cross-rank tasks: the
// fewest fetches over every side choice whose largest task count is no
// more than the heuristic's. The gap is the price of the greedy: on the
// 400 instances here it is 0 on 332, 0.185 fetches on average and never
// above 3. The largest task count must also be within one task of the
// least any side choice reaches.
func TestAssignTasksNearOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var instances, optimal, gapSum, gapMax int
	for instances < 400 {
		p := 2 + rng.Intn(3)
		pt, tasks, lens := tinyCase(rng, 4+rng.Intn(8), p, 4+rng.Intn(14))
		var cross []overlap.Task
		fixed := make([]int, p)
		for _, task := range tasks {
			if ra := pt.Owner(task.A); ra == pt.Owner(task.B) {
				fixed[ra]++
			} else {
				cross = append(cross, task)
			}
		}
		if len(cross) == 0 || len(cross) > 14 {
			continue
		}
		instances++
		got := statsOf(partition.AssignTasks(tasks, pt), pt, lens)
		best, leastMax := -1, len(tasks)
		for mask := 0; mask < 1<<len(cross); mask++ {
			load := slices.Clone(fixed)
			seen := make(map[[2]int]bool)
			for i, task := range cross {
				r, fetch := pt.Owner(task.A), task.B
				if mask>>i&1 == 1 {
					r, fetch = pt.Owner(task.B), task.A
				}
				load[r]++
				seen[[2]int{r, int(fetch)}] = true
			}
			leastMax = min(leastMax, slices.Max(load))
			if slices.Max(load) <= got.maxTasks && (best < 0 || len(seen) < best) {
				best = len(seen)
			}
		}
		if got.maxTasks > leastMax+1 {
			t.Errorf("max %d tasks a rank, least possible %d", got.maxTasks, leastMax)
		}
		gap := got.fetches - best
		if gap < 0 {
			t.Fatalf("heuristic %d fetches below the exhaustive optimum %d: the search is wrong", got.fetches, best)
		}
		if gap == 0 {
			optimal++
		}
		gapSum += gap
		gapMax = max(gapMax, gap)
	}
	t.Logf("%d instances: optimal on %d, mean gap %.3f fetches, max gap %d", instances, optimal, float64(gapSum)/float64(instances), gapMax)
	if gapMax > 3 || gapSum*4 > instances {
		t.Errorf("gap to the exhaustive optimum: max %d fetches (limit 3), mean %.3f (limit 0.25)", gapMax, float64(gapSum)/float64(instances))
	}
}

// maxFuzzPairs is the longest pair list FuzzAssignTasks assigns: 64 tasks
// over at most 65 reads. The engine minimizes a new input in time
// quadratic in its length, each try a full assignment; unbounded, one
// minimization held both workers at 0 execs a second.
const maxFuzzPairs = 128

// FuzzAssignTasks checks the assignment's contract on arbitrary task
// lists: every task lands on an owner of one of its reads, exactly once,
// each rank's tasks keep their input order, and the result is a pure
// function of its input.
func FuzzAssignTasks(f *testing.F) {
	f.Add(uint8(2), uint8(8), []byte{0, 1, 0, 2, 1, 3, 2, 3, 4, 5, 0, 7})
	f.Add(uint8(5), uint8(30), []byte{0, 9, 0, 10, 0, 11, 0, 12, 0, 13, 1, 2, 29, 3})
	f.Add(uint8(1), uint8(3), []byte{0, 1, 1, 2})
	f.Fuzz(func(t *testing.T, praw, nraw uint8, pairs []byte) {
		if len(pairs) > maxFuzzPairs {
			return
		}
		p, n := int(praw%9)+1, int(nraw%64)+2
		lens := make([]int, n)
		for i := range lens {
			lens[i] = 100 + 37*i%200
		}
		pt, err := partition.BySize(lens, p)
		if err != nil {
			t.Fatal(err)
		}
		var tasks []overlap.Task
		for i := 0; i+1 < len(pairs); i += 2 {
			a, b := seq.ReadID(int(pairs[i])%n), seq.ReadID(int(pairs[i+1])%n)
			if a == b {
				continue
			}
			tasks = append(tasks, overlap.Task{A: min(a, b), B: max(a, b), Seed: overlap.Seed{PosA: int32(len(tasks))}})
		}
		byRank := partition.AssignTasks(tasks, pt)
		if len(byRank) != p {
			t.Fatalf("%d rank lists for %d ranks", len(byRank), p)
		}
		seen := make([]bool, len(tasks))
		for r, ts := range byRank {
			last := -1
			for _, task := range ts {
				i := int(task.Seed.PosA)
				if i < 0 || i >= len(tasks) || tasks[i] != task || seen[i] {
					t.Fatalf("rank %d holds %+v: not an input task, or one it holds twice", r, task)
				}
				seen[i] = true
				if pt.Owner(task.A) != r && pt.Owner(task.B) != r {
					t.Fatalf("task %d (%d,%d) on rank %d, which owns neither read", i, task.A, task.B, r)
				}
				if i < last {
					t.Fatalf("rank %d runs task %d after task %d: input order lost", r, i, last)
				}
				last = i
			}
		}
		if i := slices.Index(seen, false); i >= 0 {
			t.Fatalf("task %d assigned to no rank", i)
		}
		again := partition.AssignTasks(tasks, pt)
		for r := range byRank {
			if !slices.Equal(byRank[r], again[r]) {
				t.Fatalf("rank %d: two calls on the same input disagree", r)
			}
		}
	})
}

// BenchmarkAssignTasks times one call on the exchange preset at 2 ranks
// (the benchmark's exchange-tcp set-up) and on Human CCS at 512 ranks,
// and reports the time and the fetches per task.
func BenchmarkAssignTasks(b *testing.B) {
	ex, err := exchangePreset(1)
	if err != nil {
		b.Fatal(err)
	}
	ccs, err := workload.Synthesize(workload.HumanCCS, 1024, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []assignCase{newAssignCase(b, "exchange", ex, 2), newAssignCase(b, "ccs", ccs, 512)} {
		b.Run(c.name, func(b *testing.B) {
			var byRank [][]overlap.Task
			for i := 0; i < b.N; i++ {
				byRank = partition.AssignTasks(c.tasks, c.pt)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.tasks)), "ns/task")
			b.ReportMetric(float64(statsOf(byRank, c.pt, c.w.Lens).fetches)/float64(len(c.tasks)), "fetches/task")
		})
	}
}

// Transfers routes as a max-flow, not first come first served: ranks 0
// and 2 are 10 over the mean, 1 and 3 are 10 under, 0 may move to 1 or 3
// and 2 only to 3, so 0 must leave 3 to 2. Free moves go before the rest:
// 0 has 10 free toward 1 and 10 not free toward 3.
func TestTransfersMaxFlow(t *testing.T) {
	cost := []int64{30, 10, 30, 10}
	free := [][]int64{{0, 10, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}}
	rest := [][]int64{{0, 0, 0, 10}, {0, 0, 0, 0}, {0, 0, 0, 15}, {0, 0, 0, 0}}
	plan := partition.Transfers(cost, free, rest)
	want := [][]int64{{0, 10, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 10}, {0, 0, 0, 0}}
	if fmt.Sprint(plan) != fmt.Sprint(want) {
		t.Errorf("plan %v, want %v", plan, want)
	}
}
