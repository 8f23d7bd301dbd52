package sim

import (
	"fmt"
	"time"

	"gnbody/internal/topo"
)

// Traffic is one directed rank→rank traffic cell, shared with
// partition.PairTraffic.
type Traffic = topo.Traffic

// PriceExchange prices one irregular all-to-all of the given traffic
// matrix analytically — the same topo route and the same exchangeCost the
// Engine's Alltoallv release applies — without running the O(P²) event
// engine, so placement sweeps reach the 32K-rank regime in milliseconds.
// placement is a rank→slot permutation (nil = identity); hier prices the
// leader-relay plan. Returns the modeled exchange time and the two
// wire-tier byte totals (headers included), which match the engine's
// summed IntraBytes/InterBytes for the same single exchange bit-for-bit
// (the conformance test pins this).
//
// Every cell in pairs must have distinct (Src, Dst); self cells (Src ==
// Dst) load the intra tier, like the engine's self row.
func PriceExchange(m Machine, nodes, rpn int, placement []int, pairs []Traffic, hier bool) (elapsed time.Duration, intra, inter int64, err error) {
	if nodes <= 0 || rpn <= 0 {
		return 0, 0, 0, fmt.Errorf("sim: price: %d nodes x %d ranks", nodes, rpn)
	}
	tm, err := topo.New(nodes*rpn, rpn, placement)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("sim: price: %w", err)
	}
	routed, err := tm.Route(pairs, hier)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("sim: price: %w", err)
	}
	for q := range routed.Intra {
		intra += routed.Intra[q]
		inter += routed.Inter[q]
	}
	return time.Duration(exchangeCost(&m, tm, routed)), intra, inter, nil
}
