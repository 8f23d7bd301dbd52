// Package workload provides the evaluation workloads: scaled synthetic
// equivalents of the paper's three real datasets (Table 1), in two forms.
//
// The *pipeline* form runs the full real pipeline (synthetic genome →
// sampled reads → k-mer filter → candidates) and is what the examples and
// intranode experiments use.
//
// The *task-graph* form synthesises read lengths and the sparse candidate
// graph directly from planted genome coordinates — no sequence bases are
// materialised — and is what the multinode simulator experiments use: the
// graph carries exactly the properties the figures depend on (read-length
// variability, tasks-per-read skew, true-overlap lengths for the cost
// model, false-positive candidates for early termination), with counts
// matching Table 1 divided by a configurable scale factor. EXPERIMENTS.md
// records scaled-vs-paper counts for every run.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"gnbody/internal/core"
	"gnbody/internal/genome"
	"gnbody/internal/overlap"
	"gnbody/internal/seq"
)

// Preset mirrors one row of Table 1.
type Preset struct {
	Name       string
	Species    string
	PaperReads int     // Table 1 "Reads"
	PaperTasks int64   // Table 1 "Tasks" (pairwise alignments; one seed each)
	GenomeLen  int64   // genome size the dataset covers
	Coverage   float64 // sequencing depth
	ErrRate    float64 // per-base error rate
	MeanLen    int     // mean read length
	SigmaLog   float64 // read-length log-normal shape
	RepeatMax  int     // longest repeat element seeding false positives
}

// The three evaluation workloads (Table 1). Mean lengths derive from
// coverage × genome ÷ reads; error rates follow the sequencing technology
// (CLR-era E. coli sets, low-error Human CCS).
var (
	EColi30x = Preset{
		Name: "E. coli 30x", Species: "Escherichia coli",
		PaperReads: 16890, PaperTasks: 2270260,
		GenomeLen: 4_600_000, Coverage: 30, ErrRate: 0.15,
		MeanLen: 8170, SigmaLog: 0.35, RepeatMax: 700,
	}
	EColi100x = Preset{
		Name: "E. coli 100x", Species: "Escherichia coli",
		PaperReads: 91394, PaperTasks: 24869171,
		GenomeLen: 4_600_000, Coverage: 100, ErrRate: 0.15,
		MeanLen: 5030, SigmaLog: 0.35, RepeatMax: 700,
	}
	HumanCCS = Preset{
		Name: "Human CCS", Species: "Homo sapiens",
		PaperReads: 1148839, PaperTasks: 87621409,
		GenomeLen: 3_100_000_000, Coverage: 4.2, ErrRate: 0.01,
		// Human repeats (LINEs reach ~6 kb) seed most CCS candidates, and
		// low-error reads align across the whole repeat copy before
		// X-drop termination — CCS false positives are *expensive*.
		MeanLen: 11330, SigmaLog: 0.25, RepeatMax: 6000,
	}
	Presets = []Preset{EColi30x, EColi100x, HumanCCS}
)

// TasksPerRead is the dataset's candidate density (Table 1 tasks ÷ reads).
func (p Preset) TasksPerRead() float64 { return float64(p.PaperTasks) / float64(p.PaperReads) }

// Workload is a ready-to-run task graph: global read lengths, the task
// list, and ground-truth metadata for the model executor.
type Workload struct {
	Preset Preset
	Scale  int // counts are Table 1 ÷ Scale

	Lens  []int32
	Tasks []overlap.Task
	Truth []genome.SampledRead

	TrueTasks  int // tasks with genuine genomic overlap
	FalseTasks int // injected false-positive candidates
}

// Meta returns the core.TaskMeta for this workload. Genuine pairs report
// their planted overlap length, capped by the error-driven extension limit
// (on high-error reads the X-drop score hits the cutoff at the first dense
// error cluster, so expected extension is bounded regardless of overlap
// length; low-error CCS reads extend across the whole overlap, which is
// why the cost tail — and the load imbalance of Figure 5 — is worst
// there). False-positive candidates report the extent of the repetitive
// region that seeded them (a deterministic 100-700 bp pseudo-repeat): the
// kernel extends through the repeat copy before early termination, so FP
// cost varies too (§4.2).
func (w *Workload) Meta() core.TaskMeta {
	cap := w.Preset.ExtensionCap()
	repeatMax := w.Preset.RepeatMax
	if repeatMax < 200 {
		repeatMax = 700
	}
	return func(t overlap.Task) (int, bool) {
		ov := genome.TrueOverlap(w.Truth[t.A], w.Truth[t.B])
		if ov > 0 {
			if ov > cap {
				ov = cap
			}
			return ov, false
		}
		repeat := 100 + int((t.Key()*2654435761)%uint64(repeatMax-100))
		// The extension cannot outrun either read.
		if la := int(w.Lens[t.A]); repeat > la {
			repeat = la
		}
		if lb := int(w.Lens[t.B]); repeat > lb {
			repeat = lb
		}
		if repeat > cap {
			repeat = cap
		}
		return repeat, true
	}
}

// ExtensionCap is the expected X-drop extension bound for the preset's
// error rate: ≈450/e bases before an error cluster deep enough to drop the
// score by X accumulates.
func (p Preset) ExtensionCap() int {
	e := p.ErrRate
	if e < 0.005 {
		e = 0.005
	}
	return int(450 / e)
}

// TotalBases sums the synthetic read lengths.
func (w *Workload) TotalBases() int64 {
	var tot int64
	for _, l := range w.Lens {
		tot += int64(l)
	}
	return tot
}

// Synthesize builds the task-graph form of preset at 1/scale size.
// Deterministic given (preset, scale, seed).
func Synthesize(p Preset, scale int, seed int64) (*Workload, error) {
	if scale < 1 {
		return nil, fmt.Errorf("workload: scale must be >= 1, got %d", scale)
	}
	nReads := p.PaperReads / scale
	if nReads < 2 {
		return nil, fmt.Errorf("workload: scale %d leaves %d reads", scale, nReads)
	}
	targetTasks := p.PaperTasks / int64(scale)
	// Shrink the virtual genome with the read count so coverage (and the
	// overlap structure it induces) is preserved.
	genomeLen := p.GenomeLen / int64(scale)
	if genomeLen < int64(4*p.MeanLen) {
		genomeLen = int64(4 * p.MeanLen)
	}
	rng := rand.New(rand.NewSource(seed))

	w := &Workload{Preset: p, Scale: scale}
	w.Lens = make([]int32, nReads)
	w.Truth = make([]genome.SampledRead, nReads)
	maxLen := 4 * p.MeanLen
	minLen := p.MeanLen / 4
	for i := 0; i < nReads; i++ {
		l := p.MeanLen
		if p.SigmaLog > 0 {
			l = int(math.Exp(math.Log(float64(p.MeanLen)) + p.SigmaLog*rng.NormFloat64()))
		}
		if l < minLen {
			l = minLen
		}
		if l > maxLen {
			l = maxLen
		}
		if int64(l) > genomeLen {
			l = int(genomeLen)
		}
		start := rng.Int63n(genomeLen - int64(l) + 1)
		w.Lens[i] = int32(l)
		w.Truth[i] = genome.SampledRead{Start: int(start), End: int(start) + l}
	}

	// True candidates: pairs with genomic overlap at least one seed (k=17).
	seen := make(map[uint64]struct{})
	var tasks []overlap.Task
	for _, pair := range genome.OverlapGraph(w.Truth, 17) {
		t := overlap.Task{A: seq.ReadID(pair[0]), B: seq.ReadID(pair[1]),
			Seed: overlap.Seed{K: 17}}
		if _, dup := seen[t.Key()]; dup {
			continue
		}
		seen[t.Key()] = struct{}{}
		tasks = append(tasks, t)
	}
	w.TrueTasks = len(tasks)

	// False-positive candidates (repetitive k-mers joining non-overlapping
	// reads) fill the gap to the Table 1 density. Their alignments die by
	// early termination, exactly the cost-variability source of §4.2.
	//
	// Aggressive scales shrink the possible pair count quadratically while
	// the task target shrinks only linearly, so cap the target at a
	// comfortable fraction of all pairs (the rejection sampler stays fast
	// and the graph stays sparse-ish); the resulting density is reported
	// by TasksPerRead comparisons in EXPERIMENTS.md.
	maxPairs := int64(nReads) * int64(nReads-1) / 2
	if cap := int64(w.TrueTasks) + (maxPairs-int64(w.TrueTasks))*3/10; targetTasks > cap {
		targetTasks = cap
	}
	// Endpoints follow a Zipf popularity law over a random permutation of
	// the reads: reads carrying copies of large repeat families ("hub"
	// reads) attract many candidates. The hubs are what skew both the
	// exchange loads (Figure 6's "large difference between the minimum and
	// maximum") and the per-rank alignment costs (Figure 5), because a
	// hub's tasks concentrate on the ranks owning it.
	perm := rng.Perm(nReads)
	zipf := rand.NewZipf(rng, 1.3, 8, uint64(nReads-1))
	attempts := 30 * targetTasks
	for int64(len(tasks)) < targetTasks && attempts > 0 {
		attempts--
		a := seq.ReadID(perm[zipf.Uint64()])
		b := seq.ReadID(perm[zipf.Uint64()])
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		t := overlap.Task{A: a, B: b, Seed: overlap.Seed{K: 17}}
		if _, dup := seen[t.Key()]; dup {
			continue
		}
		if genome.TrueOverlap(w.Truth[a], w.Truth[b]) > 0 {
			continue // keep the FP/TP labelling exact
		}
		seen[t.Key()] = struct{}{}
		tasks = append(tasks, t)
		w.FalseTasks++
	}
	overlap.SortTasks(tasks)
	w.Tasks = tasks
	return w, nil
}

// Pipeline runs the real pipeline form: a synthetic genome with the
// preset's coverage and error model, sampled reads, and candidates from the
// BELLA-filtered k-mer index. Intended for intranode-scale runs (pass a
// scale that keeps reads in the thousands).
func Pipeline(p Preset, scale int, seed int64) (*seq.ReadSet, []overlap.Task, []genome.SampledRead, error) {
	if scale < 1 {
		return nil, nil, nil, fmt.Errorf("workload: scale must be >= 1, got %d", scale)
	}
	genomeLen := p.GenomeLen / int64(scale)
	if genomeLen < int64(4*p.MeanLen) {
		genomeLen = int64(4 * p.MeanLen)
	}
	g := genome.Generate(genome.Config{Length: int(genomeLen), RepeatLen: 300, RepeatCopies: int(genomeLen / 100000), Seed: seed})
	em := genome.ErrorModel{
		Substitution: p.ErrRate * 0.4,
		Insertion:    p.ErrRate * 0.35,
		Deletion:     p.ErrRate * 0.22,
		NRate:        p.ErrRate * 0.03,
	}
	smp, err := genome.NewSampler(g, genome.ReadConfig{
		Coverage: p.Coverage, MeanLen: p.MeanLen, SigmaLog: p.SigmaLog,
		Errors: em, Seed: seed + 1,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	reads, truth := smp.Sample()
	tasks, _, _, err := overlap.FromReadSet(reads, overlap.Config{
		K: 17, Coverage: p.Coverage, ErrRate: p.ErrRate,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return reads, tasks, truth, nil
}

// LensOf extracts the global length table the drivers need.
func LensOf(rs *seq.ReadSet) []int32 {
	out := make([]int32, rs.Len())
	for i := range rs.Reads {
		out[i] = int32(rs.Reads[i].Len())
	}
	return out
}

// ScatterGenomeBlocks returns a copy of w with reads relabeled so that
// genomic neighbourhoods concentrate on scattered rank-label pairs: the
// position-sorted read sequence is cut into p blocks, and consecutive
// genome blocks 2k and 2k+1 are assigned the distant label blocks k and
// k+⌈p/2⌉. Under a p-rank contiguous partition, each rank then co-owns a
// genome segment with exactly one far-away partner rank, so the overlap
// traffic clusters on ⌊p/2⌋ heavy rank pairs that a consecutive node
// grouping always splits — the regime topology-aware placement
// (partition.PlaceByTraffic, DESIGN.md §4) is built for. It models
// inputs with genomic locality whose load order scatters neighbourhoods
// across rank labels (interleaved lanes, merged runs). Deterministic;
// task semantics are untouched (labels permute, overlaps don't).
func ScatterGenomeBlocks(w *Workload, p int) *Workload {
	n := len(w.Lens)
	if p < 2 || n < p {
		p = 1
	}
	// Position-sorted view of the reads.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return w.Truth[order[i]].Start < w.Truth[order[j]].Start
	})
	// Label block k covers [k*n/p, (k+1)*n/p); genome block g feeds label
	// block sigma(g), pairing consecutive genome blocks with far labels.
	half := (p + 1) / 2
	sigma := func(g int) int {
		if g/2 >= p/2 {
			return p / 2 // odd p: the unpaired tail block takes the middle label
		}
		if g%2 == 0 {
			return g / 2
		}
		return g/2 + half
	}
	newID := make([]seq.ReadID, n)
	pos := 0
	for g := 0; g < p; g++ {
		k := sigma(g)
		lo, hi := k*n/p, (k+1)*n/p
		for id := lo; id < hi; id++ {
			newID[order[pos]] = seq.ReadID(id)
			pos++
		}
	}
	out := &Workload{Preset: w.Preset, Scale: w.Scale,
		Lens:      make([]int32, n),
		Tasks:     make([]overlap.Task, len(w.Tasks)),
		Truth:     make([]genome.SampledRead, n),
		TrueTasks: w.TrueTasks, FalseTasks: w.FalseTasks}
	for old, id := range newID {
		out.Lens[id] = w.Lens[old]
		out.Truth[id] = w.Truth[old]
	}
	for i, t := range w.Tasks {
		out.Tasks[i] = overlap.Task{A: newID[t.A], B: newID[t.B], Seed: t.Seed}
	}
	return out
}

// SortedTaskCounts returns per-read task participation counts, sorted
// descending — the skew view used in reporting.
func SortedTaskCounts(w *Workload) []int {
	counts := make([]int, len(w.Lens))
	for _, t := range w.Tasks {
		counts[t.A]++
		counts[t.B]++
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	return counts
}
