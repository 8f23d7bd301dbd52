package sim

import (
	"testing"
	"time"

	"gnbody/internal/rt"
)

// runHierA2A executes identical dense alltoallv rounds on a 4-node x 4-rank
// machine, flat or hierarchically priced, and returns the engine.
func runHierA2A(t *testing.T, hierarchical bool, volume int) *Engine {
	t.Helper()
	const nodes, rpn = 4, 4
	e, err := NewEngine(Config{Machine: CoriKNL(), Nodes: nodes, RanksPerNode: rpn,
		Seed: 1, Hierarchical: hierarchical})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(func(r rt.Runtime) {
		for round := 0; round < 3; round++ {
			send := make([][]byte, nodes*rpn)
			for dst := range send {
				send[dst] = make([]byte, volume)
			}
			r.Alltoallv(send)
		}
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestHierarchicalPricing checks the node-aggregated alltoallv plan: the
// same logical exchange must charge members zero cross-node bytes (their
// traffic relays through the leader over the intra fabric), keep the total
// per-node cross volume on the leader NIC, and finish no later than the
// flat plan — combining messages at the node level is the whole point.
func TestHierarchicalPricing(t *testing.T) {
	const nodes, rpn, volume = 4, 4, 4096
	flat := runHierA2A(t, false, volume)
	hier := runHierA2A(t, true, volume)

	for rk := 0; rk < nodes*rpn; rk++ {
		m := hier.Metrics(rk)
		leader := rk%rpn == 0
		if leader {
			if m.InterBytes == 0 {
				t.Errorf("leader %d charged no cross-node bytes", rk)
			}
			continue
		}
		if m.InterBytes != 0 {
			t.Errorf("member %d charged %d cross-node bytes; should relay via leader",
				rk, m.InterBytes)
		}
		if m.IntraBytes == 0 {
			t.Errorf("member %d charged no intra-node relay bytes", rk)
		}
	}

	// Logical per-rank accounting is plan-independent.
	for rk := 0; rk < nodes*rpn; rk++ {
		if f, h := flat.Metrics(rk).BytesSent, hier.Metrics(rk).BytesSent; f != h {
			t.Errorf("rank %d: logical bytes diverged flat=%d hier=%d", rk, f, h)
		}
	}

	var flatInter, hierInter int64
	for rk := 0; rk < nodes*rpn; rk++ {
		flatInter += flat.Metrics(rk).InterBytes
		hierInter += hier.Metrics(rk).InterBytes
	}
	if hierInter >= flatInter {
		t.Errorf("aggregated plan prices more cross-node bytes: %d >= %d", hierInter, flatInter)
	}
	// Modelled time reads payload loads only. These are the clocks from
	// before the tier counters were routed through topo (which added the
	// headers dist really sends to the counters): the bytes moved, the
	// times must not.
	if flat.MaxClock() != 3755856 || hier.MaxClock() != 5124432 {
		t.Errorf("bulk clocks moved: flat=%d hier=%d ns, want 3755856 and 5124432", flat.MaxClock(), hier.MaxClock())
	}

	// Where aggregation pays: many small rows, so per-message software
	// overhead (o per peer: 15 flat peers vs 3 peer nodes) dominates the
	// serialized leader bandwidth. Dense bulk volumes are the opposite
	// regime — the leader NIC concentration can price hier slower there,
	// which is the honest LogGP answer, so no clock claim is made above.
	flatSmall := runHierA2A(t, false, 64)
	hierSmall := runHierA2A(t, true, 64)
	if flatSmall.MaxClock() != 2401104 || hierSmall.MaxClock() != 721488 {
		t.Errorf("small-row clocks moved: flat=%d hier=%d ns, want 2401104 and 721488", flatSmall.MaxClock(), hierSmall.MaxClock())
	}
	if hierSmall.MaxClock() >= flatSmall.MaxClock() {
		t.Errorf("small-message aggregated plan not faster: %v >= %v",
			hierSmall.MaxClock(), flatSmall.MaxClock())
	}
	t.Logf("alltoallv clock bulk: flat=%v hier=%v; small rows: flat=%v hier=%v; cross-node bytes %d -> %d",
		flat.MaxClock().Round(time.Microsecond), hier.MaxClock().Round(time.Microsecond),
		flatSmall.MaxClock().Round(time.Microsecond), hierSmall.MaxClock().Round(time.Microsecond),
		flatInter, hierInter)
}
