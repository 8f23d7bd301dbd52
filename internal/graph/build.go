// Graph construction: classify the overlap phase's hits into containment
// verdicts and dovetail edges, agree on the contained set globally, and
// route every surviving edge to the rank owning its From read — one
// alltoallv for the (tiny) containment ids and one for the edge records,
// the same irregular exchange the BSP overlap driver uses for reads.
package graph

import (
	"encoding/binary"
	"fmt"
	"time"

	"gnbody/internal/core"
	"gnbody/internal/partition"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
)

// CostModel prices the assembly stages for the simulator backend — the
// analogue of align.CostModel for the post-overlap passes. All real
// backends leave it nil (their cost is wall clock); the sim conformance
// battery sets it so the virtual clock advances through graph build,
// reduction and contig walking too.
type CostModel struct {
	PerHit  time.Duration // classify one hit (build)
	PerPair time.Duration // test one 2-path composition (reduce)
	PerBase time.Duration // append one contig base (contigs)
}

// DefaultCostModel returns nanosecond-scale per-item prices calibrated to
// the (cheap, integer-only) classification and reduction inner loops.
func DefaultCostModel() CostModel {
	return CostModel{PerHit: 60 * time.Nanosecond, PerPair: 12 * time.Nanosecond, PerBase: time.Nanosecond}
}

func (m *CostModel) charge(r rt.Runtime, cat rt.Category, per time.Duration, n int) {
	if m == nil || n <= 0 || per <= 0 {
		return
	}
	r.Charge(cat, time.Duration(n)*per)
}

// BuildConfig parameterises hit classification.
type BuildConfig struct {
	// Slack is the unaligned overhang (bases) tolerated at read ends when
	// classifying; see overlap.Classify. Default 50.
	Slack int
	// MinOverlap discards alignments spanning fewer bases on either read.
	// Default 100 (shorter overlaps are mostly repeat-induced).
	MinOverlap int
	// Model prices the stage on the simulator backend; nil elsewhere.
	Model *CostModel
}

func (c BuildConfig) withDefaults() BuildConfig {
	if c.Slack == 0 {
		c.Slack = 50
	}
	if c.MinOverlap == 0 {
		c.MinOverlap = 100
	}
	return c
}

// classifyHits canonicalizes hits and splits them into contained read ids
// and candidate dovetail edges (both twins of every pair). Pure; the
// distributed build and the serial reference share it.
func classifyHits(hits []core.Hit, lens []int32, cfg BuildConfig) (contained []seq.ReadID, cand []Edge) {
	canon := core.CanonicalizeHits(hits, lens)
	cand = make([]Edge, 0, 2*len(canon)) // every hit a dovetail: no regrowth
	for _, h := range canon {
		v, pair := ClassifyHit(h, lens[h.A], lens[h.B], cfg.Slack, cfg.MinOverlap)
		switch v {
		case VerdictContainA:
			contained = append(contained, h.A)
		case VerdictContainB:
			contained = append(contained, h.B)
		case VerdictDovetail:
			cand = append(cand, pair[0], pair[1])
		}
	}
	return contained, cand
}

// BuildLocal is the serial reference: the string graph of a complete hit
// set, with no runtime. Returns the sorted deduplicated edge list and the
// containment vector. The distributed Build must produce exactly this
// graph (as a union over ranks) for the same global hit set.
func BuildLocal(hits []core.Hit, lens []int32, cfg BuildConfig) ([]Edge, []bool) {
	cfg = cfg.withDefaults()
	ids, cand := classifyHits(hits, lens, cfg)
	contained := make([]bool, len(lens))
	for _, id := range ids {
		contained[id] = true
	}
	edges := cand[:0]
	for _, e := range cand {
		if contained[e.From.Read()] || contained[e.To.Read()] {
			continue
		}
		edges = append(edges, e)
	}
	SortEdges(edges)
	return dedupEdges(edges), contained
}

// Build constructs this rank's partition of the string graph from this
// rank's share of the hit set. Collective. The hit set may be distributed
// arbitrarily (duplicates across ranks are deduplicated at the owner); the
// resulting graph depends only on the global hit set, never on its
// placement — that is what the cross-backend conformance tests pin down.
func Build(r rt.Runtime, part *partition.Partition, lens []int32, hits []core.Hit, cfg BuildConfig) (*Graph, error) {
	cfg = cfg.withDefaults()
	p := r.Size()

	var ids []seq.ReadID
	var cand []Edge
	r.Timed(rt.CatOverhead, func() {
		ids, cand = classifyHits(hits, lens, cfg)
	})
	cfg.Model.charge(r, rt.CatOverhead, cfg.Model.prices().PerHit, len(hits))

	// Round 1: agree on the contained set. Every rank broadcasts its local
	// containment verdicts; the union is replicated (it is O(reads) bits,
	// the same replication class as the length vector).
	idBuf := make([]byte, 0, 4*len(ids))
	for _, id := range ids {
		idBuf = binary.LittleEndian.AppendUint32(idBuf, uint32(id))
	}
	send := make([][]byte, p)
	for dst := 0; dst < p; dst++ {
		send[dst] = idBuf
	}
	recv := r.Alltoallv(send)
	contained := make([]bool, len(lens))
	for src := 0; src < p; src++ {
		buf := recv[src]
		if len(buf)%4 != 0 {
			return nil, fmt.Errorf("graph: containment payload from rank %d is %d bytes", src, len(buf))
		}
		for off := 0; off < len(buf); off += 4 {
			id := binary.LittleEndian.Uint32(buf[off:])
			if int(id) >= len(lens) {
				return nil, fmt.Errorf("graph: contained read %d out of range", id)
			}
			contained[id] = true
		}
	}

	// Round 2: route every surviving edge to the owner of its From read.
	// A counting pass sizes each destination's buffer exactly.
	send = make([][]byte, p)
	r.Timed(rt.CatOverhead, func() {
		live := cand[:0]
		counts := make([]int, p)
		for _, e := range cand {
			if contained[e.From.Read()] || contained[e.To.Read()] {
				continue
			}
			live = append(live, e)
			counts[part.Owner(e.From.Read())]++
		}
		for dst, n := range counts {
			send[dst] = make([]byte, 0, n*edgeWire)
		}
		for _, e := range live {
			dst := part.Owner(e.From.Read())
			send[dst] = appendEdge(send[dst], e)
		}
	})
	recv = r.Alltoallv(send)

	me := r.Rank()
	lo, hi := part.Range(me)
	var edges []Edge
	var decErr error
	r.Timed(rt.CatOverhead, func() {
		for src := 0; src < p; src++ {
			es, err := decodeEdges(recv[src])
			if err != nil {
				decErr = fmt.Errorf("graph: from rank %d: %w", src, err)
				return
			}
			for _, e := range es { // whole 64-bit vertices: Read() would truncate
				if e.From < Vertex(2*lo) || e.From >= Vertex(2*hi) || e.To >= Vertex(2*len(lens)) {
					decErr = fmt.Errorf("graph: rank %d received edge %v→%v it does not own or that leaves the graph", me, e.From, e.To)
					return
				}
			}
			edges = append(edges, es...)
		}
	})
	if decErr != nil {
		return nil, decErr
	}

	var g *Graph
	r.Timed(rt.CatOverhead, func() {
		g = newGraph(part, me, lens, contained, edges)
	})
	return g, nil
}

// prices returns the model's prices; a nil model prices everything at 0.
func (m *CostModel) prices() CostModel {
	if m == nil {
		return CostModel{}
	}
	return *m
}
