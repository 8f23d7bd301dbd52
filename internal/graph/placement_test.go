package graph

import (
	"math/rand"
	"reflect"
	"testing"

	"gnbody/internal/core"
	"gnbody/internal/dist"
	"gnbody/internal/par"
	"gnbody/internal/partition"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
	"gnbody/internal/sim"
	"gnbody/internal/topo"
)

// TestPlacementGraphConformance (DESIGN.md §13): a rank→slot placement is
// pure regrouping — it decides which ranks share a node (tier
// classification, leader-relay routing) and never touches a payload — so
// every placement permutation must produce byte-identical string graphs,
// reduced graphs and contig sets on the tier-aware backends (dist-loopback
// and sim), under both neighbour-fetch modes. Since the TSV/FASTA writers
// are deterministic functions of these collections, equality here is
// byte-identity of the exported artifacts.
func TestPlacementGraphConformance(t *testing.T) {
	const p = 6
	w := makeSampled(t, 20000, 5, 33)
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
	byRank := dealHits(w.hits, p, 1, pt)

	// References from a tierless 1-rank world.
	wantEdges, _ := BuildLocal(w.hits, w.lens, BuildConfig{})
	wantReduced := ReduceOracle(wantEdges, 16)
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
	if len(serial.contigs) == 0 {
		t.Fatal("serial reference produced no contigs")
	}

	// Placements under test: the satellite's full set. Traffic-aware comes
	// from the real packer over the hit-implied traffic matrix; randomized
	// is a fixed-seed shuffle. All are validated permutations.
	reversed := make([]int, p)
	for q := range reversed {
		reversed[q] = p - 1 - q
	}
	var pairs []partition.PairTraffic
	for rk, hs := range byRank {
		for _, h := range hs {
			for _, id := range []seq.ReadID{h.A, h.B} {
				if o := pt.Owner(id); o != rk {
					pairs = append(pairs, partition.PairTraffic{Src: o, Dst: rk,
						Bytes: int64(w.lens[id])})
				}
			}
		}
	}
	traffic := partition.PlaceByTraffic(pairs, p, 2)
	random := rand.New(rand.NewSource(17)).Perm(p)
	placements := map[string][]int{
		"identity": nil, "reversed": reversed, "traffic": traffic, "random": random,
	}
	for name, pl := range placements {
		if pl == nil {
			continue
		}
		if _, err := topo.New(p, 2, pl); err != nil {
			t.Fatalf("%s placement invalid: %v", name, err)
		}
	}
	if reflect.DeepEqual(traffic, []int{0, 1, 2, 3, 4, 5}) {
		t.Log("note: traffic-aware placement degenerated to identity")
	}

	for name, pl := range placements {
		for _, mode := range []string{"bsp", "async"} {
			distWorld, err := dist.NewWorld(dist.Config{P: p, NodeSize: 2, Placement: pl})
			if err != nil {
				t.Fatal(err)
			}
			got := collectRun(t, p, pt, w, byRank, mode, nil,
				func(fn func(r rt.Runtime)) {
					if err := distWorld.Run(fn); err != nil {
						t.Fatalf("dist/%s/%s: %v", name, mode, err)
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
			distWorld.Close()
			checkRun(t, "dist/"+name+"/"+mode, got, wantEdges, wantReduced, serial.contigs)

			eng, err := sim.NewEngine(sim.Config{Machine: sim.CoriKNL(), Nodes: 3,
				RanksPerNode: 2, Seed: 7, Hierarchical: true, Placement: pl})
			if err != nil {
				t.Fatal(err)
			}
			model := DefaultCostModel()
			got = collectRun(t, p, pt, w, byRank, mode, &model,
				func(fn func(r rt.Runtime)) {
					if err := eng.Run(fn); err != nil {
						t.Fatalf("sim/%s/%s: %v", name, mode, err)
					}
				},
				func(r rt.Runtime) seq.Store {
					lo, hi := pt.Range(r.Rank())
					return seq.Scope(w.reads, lo, hi, w.lens)
				})
			checkRun(t, "sim/"+name+"/"+mode, got, wantEdges, wantReduced, serial.contigs)
		}
	}
}
