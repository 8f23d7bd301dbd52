package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"gnbody/internal/align"
	"gnbody/internal/core"
	"gnbody/internal/dist"
	"gnbody/internal/genome"
	"gnbody/internal/overlap"
	"gnbody/internal/par"
	"gnbody/internal/partition"
	"gnbody/internal/pipeline"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
	"gnbody/internal/sim"
)

// sampledWorkload draws noisy both-strand reads from a random genome and
// aligns every discovered candidate pair serially — the shared global hit
// set every backend's graph must agree on.
type sampledWorkload struct {
	reads *seq.ReadSet
	lens  []int32
	hits  []core.Hit
}

func makeSampled(t *testing.T, genomeLen int, coverage float64, seed int64) *sampledWorkload {
	t.Helper()
	g := genome.Generate(genome.Config{Length: genomeLen, Seed: seed})
	smp, err := genome.NewSampler(g, genome.ReadConfig{
		Coverage: coverage, MeanLen: 400, SigmaLog: 0.4, BothStrands: true,
		Errors: genome.ErrorModel{Substitution: 0.02, Insertion: 0.01, Deletion: 0.01},
		Seed:   seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads, _ := smp.Sample()
	tasks, _, _, err := overlap.FromReadSet(reads, overlap.Config{K: 15, Lo: 2, Hi: 50})
	if err != nil {
		t.Fatal(err)
	}
	hits, err := core.SerialHits(reads, tasks, align.DefaultScoring(), 20, 100)
	if err != nil {
		t.Fatal(err)
	}
	lens := make([]int32, reads.Len())
	for i := range lens {
		lens[i] = int32(reads.Reads[i].Len())
	}
	return &sampledWorkload{reads: reads, lens: lens, hits: hits}
}

// dealHits distributes the global hit set across p ranks in one of several
// placements; the resulting graph must not depend on which.
func dealHits(hits []core.Hit, p int, style int, pt *partition.Partition) [][]core.Hit {
	out := make([][]core.Hit, p)
	for i, h := range hits {
		dst := 0
		switch style {
		case 1:
			dst = i % p
		case 2:
			dst = pt.Owner(h.A)
		}
		out[dst] = append(out[dst], h)
	}
	return out
}

type graphRun struct {
	edges   []Edge // union of live edges across ranks, sorted
	reduced []Edge
	contigs []Contig
}

// collect runs build → reduce → contigs on an existing world expressed as
// a run function, and merges the per-rank outputs.
func collectRun(t *testing.T, p int, pt *partition.Partition, w *sampledWorkload,
	byRank [][]core.Hit, mode string, model *CostModel,
	run func(fn func(r rt.Runtime)), store func(r rt.Runtime) seq.Store) graphRun {
	t.Helper()
	var (
		built   = make([]*Graph, p)
		reduced = make([]*Graph, p)
		contigs = make([][]Contig, p)
		errs    = make([]error, p)
	)
	run(func(r rt.Runtime) {
		rk := r.Rank()
		g, err := Build(r, pt, w.lens, byRank[rk], BuildConfig{Model: model})
		if err != nil {
			errs[rk] = err
			return
		}
		built[rk] = g
		rg, err := Reduce(r, g, ReduceConfig{Fuzz: 16, Mode: mode, Model: model})
		if err != nil {
			errs[rk] = err
			return
		}
		reduced[rk] = rg
		cs, err := Contigs(r, rg, store(r), ContigConfig{Model: model})
		if err != nil {
			errs[rk] = err
			return
		}
		contigs[rk] = cs
	})
	out := graphRun{}
	for rk := 0; rk < p; rk++ {
		if errs[rk] != nil {
			t.Fatalf("rank %d: %v", rk, errs[rk])
		}
		out.edges = append(out.edges, built[rk].EdgeList()...)
		out.reduced = append(out.reduced, reduced[rk].EdgeList()...)
		out.contigs = append(out.contigs, contigs[rk]...)
	}
	SortEdges(out.edges)
	SortEdges(out.reduced)
	sort.Slice(out.contigs, func(i, j int) bool { return out.contigs[i].Start < out.contigs[j].Start })
	return out
}

// TestGraphConformance: serial reference, par, sim and dist-loopback — under
// both neighbour-fetch modes and three different hit placements — produce
// byte-identical string graphs, reduced graphs and contig sets.
func TestGraphConformance(t *testing.T) {
	const p = 6
	w := makeSampled(t, 30000, 6, 21)
	if len(w.hits) < 50 {
		t.Fatalf("workload too sparse: %d hits", len(w.hits))
	}
	lensInt := make([]int, len(w.lens))
	for i, l := range w.lens {
		lensInt[i] = int(l)
	}
	pt, err := partition.BySize(lensInt, p)
	if err != nil {
		t.Fatal(err)
	}

	// Serial reference: the whole hit set, no runtime.
	wantEdges, contained := BuildLocal(w.hits, w.lens, BuildConfig{})
	wantReduced := ReduceOracle(wantEdges, 16)
	if len(wantEdges) == 0 || len(wantEdges) == len(wantReduced) {
		t.Fatalf("degenerate reference: %d edges, %d after reduction", len(wantEdges), len(wantReduced))
	}
	if len(ContainedIDsOf(contained)) == 0 {
		t.Log("note: no contained reads in this workload")
	}

	// Serial reference for contigs: a 1-rank world.
	ptSerial, err := partition.BySize(lensInt, 1)
	if err != nil {
		t.Fatal(err)
	}
	serialWorld, err := par.NewWorld(par.Config{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	serial := collectRun(t, 1, ptSerial, w, [][]core.Hit{w.hits}, "bsp", nil,
		mustRun(t, serialWorld.Run), func(r rt.Runtime) seq.Store {
			return seq.Scope(w.reads, 0, w.reads.Len(), w.lens)
		})
	if !reflect.DeepEqual(serial.edges, wantEdges) {
		t.Fatalf("1-rank Build (%d edges) differs from BuildLocal (%d)", len(serial.edges), len(wantEdges))
	}
	if !reflect.DeepEqual(serial.reduced, wantReduced) {
		t.Fatalf("1-rank Reduce (%d edges) differs from oracle (%d)", len(serial.reduced), len(wantReduced))
	}
	if len(serial.contigs) == 0 {
		t.Fatal("serial reference produced no contigs")
	}

	scope := func(r rt.Runtime) seq.Store {
		lo, hi := pt.Range(r.Rank())
		return seq.Scope(w.reads, lo, hi, w.lens)
	}
	for _, mode := range []string{"bsp", "async"} {
		for style := 0; style < 3; style++ {
			byRank := dealHits(w.hits, p, style, pt)
			name := fmt.Sprintf("%s/deal%d", mode, style)

			parWorld, err := par.NewWorld(par.Config{P: p})
			if err != nil {
				t.Fatal(err)
			}
			got := collectRun(t, p, pt, w, byRank, mode, nil, mustRun(t, parWorld.Run), scope)
			checkRun(t, "par/"+name, got, wantEdges, wantReduced, serial.contigs)

			eng, err := sim.NewEngine(sim.Config{Machine: sim.CoriKNL(), Nodes: 2,
				RanksPerNode: p / 2, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			model := DefaultCostModel()
			got = collectRun(t, p, pt, w, byRank, mode, &model,
				func(fn func(r rt.Runtime)) {
					if err := eng.Run(fn); err != nil {
						t.Fatalf("sim/%s: %v", name, err)
					}
				}, scope)
			checkRun(t, "sim/"+name, got, wantEdges, wantReduced, serial.contigs)

			distWorld, err := dist.NewWorld(dist.Config{P: p})
			if err != nil {
				t.Fatal(err)
			}
			var gathered []Contig
			got = collectRun(t, p, pt, w, byRank, mode, nil,
				func(fn func(r rt.Runtime)) {
					if err := distWorld.Run(func(r rt.Runtime) {
						fn(r)
					}); err != nil {
						t.Fatalf("dist/%s: %v", name, err)
					}
				},
				func(r rt.Runtime) seq.Store {
					lo, hi := pt.Range(r.Rank())
					st, serr := seq.NewSliceStore(lo, w.reads.Reads[lo:hi], w.lens)
					if serr != nil {
						panic(serr)
					}
					return st
				})
			checkRun(t, "dist/"+name, got, wantEdges, wantReduced, serial.contigs)

			// The wire-level contig gather reproduces the merged collection.
			perRank := make([][]Contig, p)
			for _, ct := range got.contigs {
				o := pt.Owner(ct.Start.Read())
				perRank[o] = append(perRank[o], ct)
			}
			if err := distWorld.Run(func(r rt.Runtime) {
				g, gerr := GatherContigs(r, perRank[r.Rank()])
				if gerr != nil {
					panic(gerr)
				}
				if r.Rank() == 0 {
					gathered = g
				}
			}); err != nil {
				t.Fatal(err)
			}
			distWorld.Close()
			if !reflect.DeepEqual(gathered, got.contigs) {
				t.Fatalf("dist/%s: GatherContigs (%d) differs from merged collection (%d)",
					name, len(gathered), len(got.contigs))
			}
		}
	}
}

// ContainedIDsOf lists the contained reads of a containment vector in id
// order (test helper).
func ContainedIDsOf(contained []bool) []seq.ReadID {
	var out []seq.ReadID
	for id, c := range contained {
		if c {
			out = append(out, seq.ReadID(id))
		}
	}
	return out
}

func mustRun(t *testing.T, run func(f func(r rt.Runtime)) error) func(fn func(r rt.Runtime)) {
	return func(fn func(r rt.Runtime)) {
		t.Helper()
		if err := run(fn); err != nil {
			t.Fatal(err)
		}
	}
}

func checkRun(t *testing.T, name string, got graphRun, edges, reduced []Edge, contigs []Contig) {
	t.Helper()
	if !reflect.DeepEqual(got.edges, edges) {
		t.Errorf("%s: graph has %d edges, serial reference %d (or content differs)", name, len(got.edges), len(edges))
	}
	if !reflect.DeepEqual(got.reduced, reduced) {
		t.Errorf("%s: reduced graph has %d edges, oracle %d (or content differs)", name, len(got.reduced), len(reduced))
	}
	if !reflect.DeepEqual(got.contigs, contigs) {
		t.Errorf("%s: %d contigs differ from serial reference (%d)", name, len(got.contigs), len(contigs))
	}
}

// randomTwinGraph builds a random twin-symmetric edge set over n reads.
func randomTwinGraph(rng *rand.Rand, n, m int) ([]Edge, []int32) {
	lens := make([]int32, n)
	for i := range lens {
		lens[i] = int32(200 + rng.Intn(300))
	}
	var edges []Edge
	for i := 0; i < m; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		u := V(seq.ReadID(a), rng.Intn(2) == 1)
		w := V(seq.ReadID(b), rng.Intn(2) == 1)
		l1 := int32(1 + rng.Intn(100))
		l2 := int32(1 + rng.Intn(100))
		edges = append(edges, Edge{From: u, To: w, Len: l1}, Edge{From: w.Twin(), To: u.Twin(), Len: l2})
	}
	SortEdges(edges)
	return dedupEdges(edges), lens
}

// ownGraph is rank me's partition of a global edge list.
func ownGraph(pt *partition.Partition, me int, lens []int32, contained []bool, edges []Edge) *Graph {
	var own []Edge
	for _, e := range edges {
		if pt.Owner(e.From.Read()) == me {
			own = append(own, e)
		}
	}
	return newGraph(pt, me, lens, contained, own)
}

// ReduceOracle is the brute-force serial reference: test every edge
// against every possible two-edge explanation, then symmetrize. Quadratic
// in the edge count — the property tests pit Reduce against it on random
// graphs.
func ReduceOracle(edges []Edge, fuzz int) []Edge {
	es := make([]Edge, len(edges))
	copy(es, edges)
	SortEdges(es)
	es = dedupEdges(es)
	idx := make(map[[2]Vertex]int, len(es))
	for i, e := range es {
		idx[[2]Vertex{e.From, e.To}] = i
	}
	marked := make([]bool, len(es))
	for i, e := range es { // shortcut candidate u→x
		for _, f := range es { // u→w
			if f.From != e.From || f.To == e.To || f.To == e.From {
				continue
			}
			k, ok := idx[[2]Vertex{f.To, e.To}] // w→x
			if !ok {
				continue
			}
			d := f.Len + es[k].Len - e.Len
			if d < 0 {
				d = -d
			}
			if d <= int32(fuzz) {
				marked[i] = true
				break
			}
		}
	}
	for i, e := range es {
		if !marked[i] {
			continue
		}
		if k, ok := idx[[2]Vertex{e.To.Twin(), e.From.Twin()}]; ok {
			marked[k] = true
		}
	}
	var out []Edge
	for i, e := range es {
		if !marked[i] {
			out = append(out, e)
		}
	}
	return out
}

// TestReduceMatchesOracle: distributed transitive reduction on random
// twin-symmetric string graphs equals the brute-force serial oracle, for
// both fetch modes and several fuzz values.
func TestReduceMatchesOracle(t *testing.T) {
	const p = 4
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		edges, lens := randomTwinGraph(rng, 30, 120)
		lensInt := make([]int, len(lens))
		for i, l := range lens {
			lensInt[i] = int(l)
		}
		pt, err := partition.BySize(lensInt, p)
		if err != nil {
			t.Fatal(err)
		}
		contained := make([]bool, len(lens))
		for _, fuzz := range []int{0, 5, 40} {
			want := ReduceOracle(edges, fuzz)
			for _, mode := range []string{"bsp", "async"} {
				world, err := par.NewWorld(par.Config{P: p})
				if err != nil {
					t.Fatal(err)
				}
				outs := make([]*Graph, p)
				errs := make([]error, p)
				world.Run(func(r rt.Runtime) {
					rk := r.Rank()
					g := ownGraph(pt, rk, lens, contained, edges)
					outs[rk], errs[rk] = Reduce(r, g, ReduceConfig{Fuzz: fuzz, Mode: mode})
				})
				var got []Edge
				for rk := 0; rk < p; rk++ {
					if errs[rk] != nil {
						t.Fatalf("seed %d fuzz %d %s rank %d: %v", seed, fuzz, mode, rk, errs[rk])
					}
					got = append(got, outs[rk].EdgeList()...)
				}
				SortEdges(got)
				if want == nil {
					want = []Edge{}
				}
				if got == nil {
					got = []Edge{}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d fuzz %d %s: distributed reduction %d edges, oracle %d\n got: %v\nwant: %v",
						seed, fuzz, mode, len(got), len(want), got, want)
				}
			}
		}
	}
}

// TestReduceRejectsRaggedRequest: a 7-byte adjacency request used to panic
// the rank that received it over RPC. Now, in either fetch mode, that rank
// answers with nothing and returns an error naming the stage and the
// request; the sender, whose answer came back empty, errors too; both do
// so after the stage's last collective, so the third rank finishes.
func TestReduceRejectsRaggedRequest(t *testing.T) {
	const p = 3
	edges, lens := randomTwinGraph(rand.New(rand.NewSource(3)), 30, 120)
	lensInt := make([]int, len(lens))
	for i, l := range lens {
		lensInt[i] = int(l)
	}
	pt, err := partition.BySize(lensInt, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"async", "bsp"} {
		world, err := par.NewWorld(par.Config{P: p})
		if err != nil {
			t.Fatal(err)
		}
		errs := make([]error, p)
		mustRun(t, world.Run)(func(r rt.Runtime) {
			rk := r.Rank()
			g := ownGraph(pt, rk, lens, make([]bool, len(lens)), edges)
			if rk == 1 { // cut rank 1's neighbour request to rank 0 to 7 bytes
				call := 0 // bsp: the first Alltoallv carries it
				if mode == "async" {
					call = -1 // async: an RPC does; leave the collectives alone
				}
				r = &corruptingRuntime{Runtime: r, call: call, mutate: func(req []byte) []byte { return req[:7] }}
			}
			_, errs[rk] = Reduce(r, g, ReduceConfig{Mode: mode})
		})
		if errs[0] == nil || !strings.Contains(errs[0].Error(), "reduce: rank 0: bad request") ||
			!strings.Contains(errs[0].Error(), "7 bytes") {
			t.Errorf("%s: rank 0 returned %v, want an error naming the reduce stage and the 7-byte request", mode, errs[0])
		}
		if errs[1] == nil {
			t.Errorf("%s: rank 1 (whose request went unanswered) returned no error", mode)
		}
		if errs[2] != nil {
			t.Errorf("%s: rank 2 returned %v, want success", mode, errs[2])
		}
	}
}

// TestReduceTwinSymmetric: reduction output always keeps twin pairs
// together, whatever the input labels — the contig walk's degree
// invariant depends on it.
func TestReduceTwinSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	edges, _ := randomTwinGraph(rng, 25, 200)
	for _, fuzz := range []int{0, 10, 80} {
		out := ReduceOracle(edges, fuzz)
		idx := make(map[[2]Vertex]bool, len(out))
		for _, e := range out {
			idx[[2]Vertex{e.From, e.To}] = true
		}
		for _, e := range out {
			if !idx[[2]Vertex{e.To.Twin(), e.From.Twin()}] {
				t.Fatalf("fuzz %d: edge %v→%v survives but its twin does not", fuzz, e.From, e.To)
			}
		}
	}
}

// tiledWorkload lays error-free reads across a random genome at a fixed
// stride, so consecutive reads overlap by readLen-step and reads two apart
// by readLen-2*step — real transitive edges that reduction must remove
// before the contig walk can reproduce the genome in one piece.
func tiledWorkload(t testing.TB, n, readLen, step int, seed int64) (seq.Seq, *seq.ReadSet, []int32) {
	t.Helper()
	g := genome.Generate(genome.Config{Length: step*(n-1) + readLen, Seed: seed})
	seqs := make([]seq.Seq, n)
	for i := 0; i < n; i++ {
		s := make(seq.Seq, readLen)
		copy(s, g[i*step:i*step+readLen])
		seqs[i] = s
	}
	reads := seq.NewReadSet(seqs)
	lens := make([]int32, n)
	for i := range lens {
		lens[i] = int32(readLen)
	}
	return g, reads, lens
}

// TestContigsReconstructGenome is the end-to-end acceptance test: an
// error-free tiled read set, pushed through the full stage chain
// (discover → align → graph → reduce → contigs) on a 4-rank world,
// reassembles the genome exactly.
func TestContigsReconstructGenome(t *testing.T) {
	const (
		p       = 4
		n       = 19
		readLen = 450
		step    = 150
	)
	g, reads, lens := tiledWorkload(t, n, readLen, step, 5)
	runAssembly := func(t *testing.T, minReads int) []Contig {
		t.Helper()
		pl, err := newAssemblyPlan(lens, p)
		if err != nil {
			t.Fatal(err)
		}
		world, err := par.NewWorld(par.Config{P: p})
		if err != nil {
			t.Fatal(err)
		}
		contigs := make([][]Contig, p)
		errs := make([]error, p)
		world.Run(func(r rt.Runtime) {
			rk := r.Rank()
			lo, hi := pl.Part.Range(rk)
			st := seq.Scope(reads, lo, hi, lens)
			run, err := pl.RunStages(r, st, nil)
			if err != nil {
				errs[rk] = err
				return
			}
			contigs[rk] = run.Out.([]Contig)
			if len(run.Rows) != len(pl.Stages) {
				errs[rk] = fmt.Errorf("got %d stage rows, want %d", len(run.Rows), len(pl.Stages))
			}
		})
		var all []Contig
		for rk := 0; rk < p; rk++ {
			if errs[rk] != nil {
				t.Fatalf("rank %d: %v", rk, errs[rk])
			}
			all = append(all, contigs[rk]...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
		out := all[:0]
		for _, ct := range all {
			if int(ct.Reads) >= minReads {
				out = append(out, ct)
			}
		}
		return out
	}

	contigs := runAssembly(t, 0)
	if len(contigs) != 1 {
		t.Fatalf("got %d contigs, want 1 (starts: %v)", len(contigs), startsOf(contigs))
	}
	ct := contigs[0]
	if int(ct.Reads) != n {
		t.Errorf("contig merged %d reads, want %d", ct.Reads, n)
	}
	if ct.Circular {
		t.Error("linear genome assembled as circular")
	}
	if !reflect.DeepEqual(ct.Seq, g) {
		t.Fatalf("assembled %d bases != genome %d bases (identical prefix: %d)",
			len(ct.Seq), len(g), commonPrefix(ct.Seq, g))
	}

	var fa bytes.Buffer
	if err := WriteContigFASTA(&fa, contigs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(fa.Bytes(), []byte(">contig00001 reads=19")) {
		t.Errorf("FASTA header missing: %q", fa.Bytes()[:60])
	}
}

// newAssemblyPlan wires the full five-stage chain the way cmd/dibella does.
func newAssemblyPlan(lens []int32, p int) (*pipeline.Plan, error) {
	pl, err := pipeline.NewPlan(lens, p, pipeline.Spec{K: 15, Lo: 2, Hi: 50})
	if err != nil {
		return nil, err
	}
	pl.Stages = []pipeline.Stage{pipeline.DiscoverStage{}, pipeline.AlignStage{MinScore: 50, X: 20}}
	pl.Stages = append(pl.Stages, AssemblyStages(0, 0, 0, "bsp", nil)...)
	return pl, nil
}

func startsOf(cs []Contig) []Vertex {
	out := make([]Vertex, len(cs))
	for i, ct := range cs {
		out[i] = ct.Start
	}
	return out
}

func commonPrefix(a, b seq.Seq) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}
