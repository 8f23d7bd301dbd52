package sim

import (
	"testing"

	"gnbody/internal/rt"
)

// TestPriceExchangeMatchesEngine pins the analytic pricer to the event
// engine: for the same traffic matrix, PriceExchange must reproduce the
// engine's exchange time and tier byte totals bit-for-bit — flat and
// hierarchical, identity and permuted placement.
func TestPriceExchangeMatchesEngine(t *testing.T) {
	const nodes, rpn = 2, 3
	p := nodes * rpn
	// A skewed matrix: rank 0 is a hub; include an intra pair and zero rows.
	cells := []Traffic{
		{Src: 0, Dst: 3, Bytes: 1000},
		{Src: 0, Dst: 4, Bytes: 700},
		{Src: 3, Dst: 0, Bytes: 650},
		{Src: 1, Dst: 2, Bytes: 400},
		{Src: 5, Dst: 1, Bytes: 250},
		{Src: 2, Dst: 5, Bytes: 90},
	}
	placements := map[string][]int{
		"identity": nil,
		"permuted": {4, 2, 0, 1, 5, 3},
	}
	for name, pl := range placements {
		for _, hier := range []bool{false, true} {
			eng, err := NewEngine(Config{Machine: CoriKNL(), Nodes: nodes,
				RanksPerNode: rpn, Seed: 1, Hierarchical: hier, Placement: pl})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Run(func(r rt.Runtime) {
				send := make([][]byte, p)
				for _, c := range cells {
					if c.Src == r.Rank() {
						send[c.Dst] = make([]byte, c.Bytes)
					}
				}
				r.Alltoallv(send)
			}); err != nil {
				t.Fatal(err)
			}
			var gotIntra, gotInter int64
			for q := 0; q < p; q++ {
				gotIntra += eng.Metrics(q).IntraBytes
				gotInter += eng.Metrics(q).InterBytes
			}
			elapsed, intra, inter, err := PriceExchange(CoriKNL(), nodes, rpn, pl, cells, hier)
			if err != nil {
				t.Fatal(err)
			}
			if intra != gotIntra || inter != gotInter {
				t.Errorf("%s hier=%v: priced tiers %d/%d, engine %d/%d",
					name, hier, intra, inter, gotIntra, gotInter)
			}
			if elapsed != eng.MaxClock() {
				t.Errorf("%s hier=%v: priced %v, engine %v", name, hier, elapsed, eng.MaxClock())
			}
		}
	}
}

// TestPriceExchangeRejects covers the validation path: a world of no
// ranks, a cell outside it, and every way a placement can fail to be a
// permutation are errors, never an index panic.
func TestPriceExchangeRejects(t *testing.T) {
	one := []Traffic{{Src: 0, Dst: 1, Bytes: 1}}
	for _, tc := range []struct {
		name       string
		nodes, rpn int
		placement  []int
		cells      []Traffic
	}{
		{"cell out of range", 2, 2, nil, []Traffic{{Src: 0, Dst: 9, Bytes: 1}}},
		{"zero nodes", 0, 4, nil, nil},
		{"negative world", -2, -2, nil, nil},
		{"placement too short", 2, 2, []int{0, 1, 2}, one},
		{"placement too long", 2, 2, []int{0, 1, 2, 3, 4}, one},
		{"slot out of range", 2, 2, []int{0, 1, 2, 4}, one},
		{"negative slot", 2, 2, []int{0, -1, 2, 3}, one},
		{"duplicate slot", 2, 2, []int{0, 1, 1, 3}, one},
	} {
		for _, hier := range []bool{false, true} {
			if _, _, _, err := PriceExchange(CoriKNL(), tc.nodes, tc.rpn, tc.placement, tc.cells, hier); err == nil {
				t.Errorf("%s (hier=%v) accepted", tc.name, hier)
			}
		}
	}
}
