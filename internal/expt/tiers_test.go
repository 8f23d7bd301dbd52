package expt

import (
	"fmt"
	"math/rand"
	"testing"

	"gnbody/internal/dist"
	"gnbody/internal/partition"
	"gnbody/internal/rt"
	"gnbody/internal/sim"
	"gnbody/internal/topo"
)

// TestTiersAgree is the "planned = simulated = measured" check: one lone
// alltoallv of a seeded sparse matrix (some rows empty, a few self cells)
// must put exactly the same bytes on each tier whether dist really sends
// it over loopback, the sim engine models it or topo routes it — and
// partition.TrafficSplit's planned inter bytes are that inter total less
// the header overhead topo reports. sim worlds are Nodes × RanksPerNode
// ranks with consecutive ranks on a node, so the layout with a short tail
// node (7 ranks in nodes of 3) and the packed placement have no sim leg.
func TestTiersAgree(t *testing.T) {
	for _, layout := range []struct{ p, ns int }{{8, 4}, {7, 3}} {
		p, ns := layout.p, layout.ns
		rng := rand.New(rand.NewSource(int64(100*p + ns)))
		var cells []topo.Traffic
		for src := 0; src < p; src++ {
			if src%3 == 1 {
				continue // a silent rank
			}
			for dst := 0; dst < p; dst++ {
				if rng.Intn(5) < 2 {
					cells = append(cells, topo.Traffic{Src: src, Dst: dst, Bytes: 1 + rng.Int63n(2000)})
				}
			}
		}
		placed := partition.PlaceByTraffic(cells, p, ns)
		for _, pl := range [][]int{nil, placed} {
			for _, relay := range []bool{false, true} {
				name := fmt.Sprintf("p%d/ns%d/placed=%v/relay=%v", p, ns, pl != nil, relay)
				t.Run(name, func(t *testing.T) {
					tm, err := topo.New(p, ns, pl)
					if err != nil {
						t.Fatal(err)
					}
					routed, err := tm.Route(cells, relay)
					if err != nil {
						t.Fatal(err)
					}
					var wantIntra, wantInter int64
					for q := 0; q < p; q++ {
						wantIntra += routed.Intra[q]
						wantInter += routed.Inter[q]
					}
					body := func(r rt.Runtime) {
						send := make([][]byte, p)
						for _, c := range cells {
							if c.Src == r.Rank() {
								send[c.Dst] = make([]byte, c.Bytes)
							}
						}
						r.Alltoallv(send)
					}
					check := func(who string, intra, inter int64) {
						t.Helper()
						if intra != wantIntra || inter != wantInter {
							t.Errorf("%s: intra/inter %d/%d, topo routes %d/%d", who, intra, inter, wantIntra, wantInter)
						}
					}

					world, err := dist.NewWorld(dist.Config{P: p, NodeSize: ns, Placement: pl, NoAggregation: !relay})
					if err != nil {
						t.Fatal(err)
					}
					defer world.Close()
					if err := world.Run(body); err != nil {
						t.Fatal(err)
					}
					var intra, inter int64
					for q := 0; q < p; q++ {
						intra += world.Metrics(q).IntraBytes
						inter += world.Metrics(q).InterBytes
						if m := world.Metrics(q); m.IntraBytes != routed.Intra[q] || m.InterBytes != routed.Inter[q] {
							t.Errorf("dist rank %d: intra/inter %d/%d, topo routes %d/%d",
								q, m.IntraBytes, m.InterBytes, routed.Intra[q], routed.Inter[q])
						}
					}
					check("dist", intra, inter)

					if _, planned := partition.TrafficSplit(cells, pl, ns); planned != wantInter-routed.InterOverhead {
						t.Errorf("partition plans %d inter bytes, route carries %d less %d of headers",
							planned, wantInter, routed.InterOverhead)
					}

					if p%ns != 0 || pl != nil {
						return
					}
					eng, err := sim.NewEngine(sim.Config{Machine: sim.CoriKNL(), Nodes: p / ns,
						RanksPerNode: ns, Seed: 1, Hierarchical: relay})
					if err != nil {
						t.Fatal(err)
					}
					if err := eng.Run(body); err != nil {
						t.Fatal(err)
					}
					intra, inter = 0, 0
					for q := 0; q < p; q++ {
						intra += eng.Metrics(q).IntraBytes
						inter += eng.Metrics(q).InterBytes
					}
					check("sim engine", intra, inter)
				})
			}
		}
	}
}
