package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"gnbody/internal/dist"
	"gnbody/internal/par"
	"gnbody/internal/partition"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
	"gnbody/internal/sim"
)

// Tests of the BSP superstep plan under a memory budget: the chunks are
// packed heaviest group first over the supersteps every rank agreed on,
// and re-sorted by read before their requests are built.

const (
	planRanks  = 4
	planBudget = 24 << 10 // a few reads a superstep on top of each partition
)

// requestCheck wraps a runtime and checks every BSP request list it sends:
// the reads asked of one owner must be that owner's, in strictly
// increasing order — one contiguous run of a chunk sorted by read.
type requestCheck struct {
	rt.Runtime
	pt    *partition.Partition
	a2a   int // Alltoallv calls seen; even ones carry request lists
	lists int // non-empty request lists checked
	bad   []string
}

func (c *requestCheck) Alltoallv(send [][]byte) [][]byte {
	if c.a2a%2 == 0 {
		for owner, req := range send {
			if len(req) == 0 {
				continue
			}
			c.lists++
			lo, hi := c.pt.Range(owner)
			prev := -1
			for i := 0; i+4 <= len(req); i += 4 {
				id := int(binary.LittleEndian.Uint32(req[i:]))
				if id < lo || id >= hi || id <= prev {
					c.bad = append(c.bad, fmt.Sprintf("superstep %d: read %d asked of rank %d after read %d", c.a2a/2+1, id, owner, prev))
				}
				prev = id
			}
		}
	}
	c.a2a++
	return c.Runtime.Alltoallv(send)
}

// planWorld runs body on every rank of a planRanks world of the named
// backend under planBudget.
func planWorld(t *testing.T, backend string, body func(rt.Runtime)) {
	t.Helper()
	switch backend {
	case "par":
		w, err := par.NewWorld(par.Config{P: planRanks, MemBudget: planBudget})
		if err != nil {
			t.Fatal(err)
		}
		w.Run(body)
	case "sim":
		eng, err := sim.NewEngine(sim.Config{Machine: sim.CoriKNL(), Nodes: 2, RanksPerNode: planRanks / 2,
			MemBudget: planBudget, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(body); err != nil {
			t.Fatal(err)
		}
	case "dist":
		w, err := dist.NewWorld(dist.Config{P: planRanks, MemBudget: planBudget})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if err := w.Run(body); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBSPSuperstepPlan: under a budget that takes several supersteps, BSP
// on par, sim and dist returns exactly the serial reference's hits, and
// every request list of every chunk is one increasing run per owner.
func TestBSPSuperstepPlan(t *testing.T) {
	w := makeWorkload(t, 10000, 6, 53)
	meta := taskMetaFromTruth(w)
	want := SerialModelHits(w.tasks, meta, confMinScore)
	SortHits(want)
	lens := w.lens()
	lensInt := make([]int, len(lens))
	for i, l := range lens {
		lensInt[i] = int(l)
	}
	pt, err := partition.BySize(lensInt, planRanks)
	if err != nil {
		t.Fatal(err)
	}
	byRank := partition.AssignTasks(w.tasks, pt)
	exec := ModelExecutor{Model: testCostModel, Meta: meta}
	for _, backend := range []string{"par", "sim", "dist"} {
		results := make([]*Result, planRanks)
		errs := make([]error, planRanks)
		checks := make([]*requestCheck, planRanks)
		planWorld(t, backend, func(r rt.Runtime) {
			rk := r.Rank()
			lo, hi := pt.Range(rk)
			in := &Input{Part: pt, Lens: lens, Tasks: byRank[rk], Codec: PhantomCodec{Lens: lens},
				Store: seq.Scope(w.reads, lo, hi, lens)}
			checks[rk] = &requestCheck{Runtime: r, pt: pt}
			results[rk], errs[rk] = RunBSP(checks[rk], in, Config{Exec: exec, MinScore: confMinScore})
		})
		var hits []Hit
		steps, lists := 0, 0
		for rk := range results {
			if errs[rk] != nil {
				t.Fatalf("%s rank %d: %v", backend, rk, errs[rk])
			}
			hits = append(hits, results[rk].Hits...)
			steps = max(steps, results[rk].Supersteps)
			lists += checks[rk].lists
			for _, bad := range checks[rk].bad {
				t.Errorf("%s rank %d: %s", backend, rk, bad)
			}
		}
		SortHits(hits)
		if !bytes.Equal(EncodeHits(hits), EncodeHits(want)) {
			t.Errorf("%s: %d hits differ from the serial reference's %d", backend, len(hits), len(want))
		}
		if steps < 3 || lists < 2*planRanks {
			t.Errorf("%s: %d supersteps, %d request lists; the test needs several", backend, steps, lists)
		}
	}
}

// TestBSPReorderedPayloadFails: a requester whose request list reaches the
// owner reversed gets its reads back out of the order its chunk asked
// for, and must end in an ExchangeError naming the owner, not in lost or
// doubled hits; the other ranks finish normally.
func TestBSPReorderedPayloadFails(t *testing.T) {
	const p = 3
	reads, lens, pt, byRank := crossWorkload(t, 90, 600, p)
	reverse := func(req []byte) []byte {
		out := make([]byte, 0, len(req))
		for i := len(req) - 4; i >= 0; i -= 4 {
			out = append(out, req[i:i+4]...)
		}
		return out
	}
	for _, backend := range []string{"par", "dist"} {
		errs := make([]error, p)
		body := func(r rt.Runtime) {
			lo, hi := pt.Range(r.Rank())
			st := seq.Scope(reads, lo, hi, lens)
			in := &Input{Part: pt, Lens: lens, Tasks: byRank[r.Rank()], Codec: RealCodec{Store: st}, Store: st}
			rank := r.Rank()
			if rank == 0 {
				r = &lyingRequests{Runtime: r, to: 1, mutate: reverse}
			}
			_, errs[rank] = RunBSP(r, in, Config{Exec: NoopExecutor{}})
		}
		if backend == "par" {
			w, err := par.NewWorld(par.Config{P: p, MemBudget: 32 << 10})
			if err != nil {
				t.Fatal(err)
			}
			w.Run(body)
		} else {
			w, err := dist.NewWorld(dist.Config{P: p, MemBudget: 32 << 10})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Run(body); err != nil {
				t.Fatal(err)
			}
			w.Close()
		}
		var xe *ExchangeError
		if !errors.As(errs[0], &xe) || xe.From != 1 || !strings.Contains(xe.Reason, "missing from the payload") {
			t.Errorf("%s: rank 0 returned %v, want an ExchangeError from rank 1 saying a read is missing", backend, errs[0])
		}
		if i := slices.IndexFunc(errs[1:], func(err error) bool { return err != nil }); i >= 0 {
			t.Errorf("%s: rank %d returned %v, want success", backend, i+1, errs[i+1])
		}
	}
}
