// Transitive reduction: drop every edge u→x that a two-edge path
// u→w→x explains (|ℓ(u→w)+ℓ(w→x)−ℓ(u→x)| ≤ fuzz — edge labels are
// appended-base counts, so composition is additive up to alignment
// noise). The predicate is evaluated on the *original* graph for every
// edge independently — no iteration order, hence a deterministic result —
// and removal is symmetrized across twin pairs so the walk invariant
// indeg(v) == outdeg(twin(v)) survives even where duplicate-overlap
// dedup picked twin labels from different alignments.
//
// Distribution: a rank can test its own edge u→x once it sees the
// out-adjacency of every middle vertex w it points at. Those neighbour
// lists are the only remote state, fetched either in one alltoallv
// round-trip (bsp mode) or through the runtime's AsyncCall RPC (async
// mode) — the same two coordination strategies the overlap phase offers,
// which is exactly what makes the stage a drop-in for the scaling
// experiments.
package graph

import (
	"encoding/binary"
	"fmt"
	"slices"

	"gnbody/internal/rt"
)

// ReduceConfig parameterises transitive reduction.
type ReduceConfig struct {
	// Fuzz is the tolerated length slack (bases) when testing whether a
	// two-edge path explains an edge. 0 demands exact additivity
	// (error-free reads); noisy data wants ~overlap-slack magnitude.
	Fuzz int
	// Mode selects the neighbour-fetch strategy: "bsp" (default, one
	// alltoallv round-trip) or "async" (RPC per owner).
	Mode string
	// Model prices the stage on the simulator backend; nil elsewhere.
	Model *CostModel
}

// answerAdjReq serves a batch adjacency request: req is a packed list of
// vertex ids (8B each); the response packs, per vertex in request order,
// a uint32 edge count followed by (To 8B, Len 4B) per edge. Vertices this
// rank does not own — any id at all, in range or not — answer 0.
func (g *Graph) answerAdjReq(req []byte) ([]byte, error) {
	if len(req)%8 != 0 {
		return nil, fmt.Errorf("graph: adjacency request of %d bytes", len(req))
	}
	resp := make([]byte, 0, len(req))
	for off := 0; off < len(req); off += 8 {
		resp = appendAdj(resp, g.Out(Vertex(binary.LittleEndian.Uint64(req[off:]))))
	}
	return resp, nil
}

// appendAdj appends one vertex's answer: its edge count, then (To, Len)
// per edge.
func appendAdj(dst []byte, es []Edge) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(es)))
	for _, e := range es {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(e.To))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Len))
	}
	return dst
}

// fetched is the adjacency one owner returned: a CSR over the sorted
// vertices vs, the out-edges of vs[i] at edges[off[i]:off[i+1]].
type fetched struct {
	vs    []Vertex
	off   []int32
	edges []Edge
}

// out returns v's fetched out-edges, found by binary search.
func (f *fetched) out(v Vertex) []Edge {
	i, ok := slices.BinarySearch(f.vs, v)
	if !ok {
		return nil
	}
	return f.edges[f.off[i]:f.off[i+1]]
}

// parseAdjResp unpacks answerAdjReq's response to a request for ids.
func parseAdjResp(ids []Vertex, resp []byte) (fetched, error) {
	f := fetched{vs: ids, off: make([]int32, 1, len(ids)+1),
		edges: make([]Edge, 0, max(len(resp)-4*len(ids), 0)/12)}
	off := 0
	for _, v := range ids {
		if off+4 > len(resp) {
			return fetched{}, fmt.Errorf("graph: truncated adjacency response")
		}
		n := int(binary.LittleEndian.Uint32(resp[off:]))
		off += 4
		if n > (len(resp)-off)/12 {
			return fetched{}, fmt.Errorf("graph: truncated adjacency response")
		}
		for i := 0; i < n; i++ {
			f.edges = append(f.edges, Edge{
				From: v,
				To:   Vertex(binary.LittleEndian.Uint64(resp[off:])),
				Len:  int32(binary.LittleEndian.Uint32(resp[off+8:])),
			})
			off += 12
		}
		f.off = append(f.off, int32(len(f.edges)))
	}
	if off != len(resp) {
		return fetched{}, fmt.Errorf("graph: %d trailing bytes in adjacency response", len(resp)-off)
	}
	return f, nil
}

// fetchNeighbors resolves the out-adjacency of the remote vertices this
// rank needs: segs[o] is the sorted run of them owner o holds, and o's
// answer lands in entry o of the result — through one alltoallv exchange
// (bsp) or one batched AsyncCall per owner (async). On error the result
// holds whatever arrived intact.
func (g *Graph) fetchNeighbors(r rt.Runtime, mode string, segs [][]Vertex) ([]fetched, error) {
	p, me := r.Size(), r.Rank()
	got := make([]fetched, p)
	req := make([][]byte, p)
	for o, ids := range segs {
		if o == me || len(ids) == 0 {
			continue
		}
		req[o] = make([]byte, 0, 8*len(ids))
		for _, v := range ids {
			req[o] = binary.LittleEndian.AppendUint64(req[o], uint64(v))
		}
	}

	switch mode {
	case "", "bsp":
		inbound := r.Alltoallv(req)
		resp := make([][]byte, p)
		var err error
		r.Timed(rt.CatOverhead, func() {
			for src := 0; src < p; src++ {
				if len(inbound[src]) == 0 {
					continue
				}
				var bad error
				if resp[src], bad = g.answerAdjReq(inbound[src]); bad != nil && err == nil {
					err = fmt.Errorf("graph: reduce: rank %d: bad request from rank %d: %w", me, src, bad)
				}
			}
		})
		answers := r.Alltoallv(resp)
		if err != nil {
			return got, err
		}
		for o, buf := range req {
			if buf == nil {
				continue
			}
			if got[o], err = parseAdjResp(segs[o], answers[o]); err != nil {
				return got, fmt.Errorf("from rank %d: %w", o, err)
			}
		}
		return got, nil

	case "async":
		// A request this rank cannot answer is answered with nothing; the
		// first error, served or received, is returned after the exit barrier.
		var perr error
		r.Serve(func(req []byte) []byte {
			resp, err := g.answerAdjReq(req)
			if err != nil && perr == nil {
				perr = fmt.Errorf("graph: reduce: rank %d: bad request: %w", me, err)
			}
			return resp
		})
		r.Barrier() // handler registered everywhere before anyone calls in
		for o, buf := range req {
			if buf == nil {
				continue
			}
			r.AsyncCall(o, buf, func(resp []byte) {
				f, err := parseAdjResp(segs[o], resp)
				if err != nil && perr == nil {
					perr = fmt.Errorf("from rank %d: %w", o, err)
				}
				got[o] = f
			})
		}
		r.Drain(0)
		r.Barrier() // keep serving peers still fetching
		return got, perr
	}
	return got, fmt.Errorf("graph: unknown reduce mode %q", mode)
}

// markWire is the size of one twin mark on the wire: the From and To (8B
// each) of the edge its receiver must drop.
const markWire = 16

func appendMark(dst []byte, from, to Vertex) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(from))
	return binary.LittleEndian.AppendUint64(dst, uint64(to))
}

func decodeMarks(buf []byte) ([][2]Vertex, error) {
	if len(buf)%markWire != 0 {
		return nil, fmt.Errorf("graph: twin-mark payload of %d bytes is not a multiple of %d", len(buf), markWire)
	}
	out := make([][2]Vertex, 0, len(buf)/markWire)
	for off := 0; off < len(buf); off += markWire {
		out = append(out, [2]Vertex{
			Vertex(binary.LittleEndian.Uint64(buf[off:])),
			Vertex(binary.LittleEndian.Uint64(buf[off+8:])),
		})
	}
	return out, nil
}

// Reduce returns the transitively reduced graph. Collective; g is not
// modified. The output on every rank is a pure function of the global
// input graph — mode and rank count never change which edges survive.
func Reduce(r rt.Runtime, g *Graph, cfg ReduceConfig) (*Graph, error) {
	p, me := r.Size(), r.Rank()
	met := r.Metrics()

	// Which middle-vertex adjacencies does this rank need? Every To of a
	// local edge: sorted and deduplicated, the list splits into one run per
	// owner, since owners hold contiguous blocks of reads in rank order.
	// Each distinct remote middle costs one wire record whatever the mode;
	// every repeat of one is a lookup the dedup saved from the wire.
	segs := make([][]Vertex, p)
	r.Timed(rt.CatOverhead, func() {
		need := make([]Vertex, len(g.edges))
		remote := 0
		for i, e := range g.edges {
			need[i] = e.To
			if !g.owns(e.To) {
				remote++
			}
		}
		slices.Sort(need)
		need = slices.Compact(need)
		for o := range segs {
			lo, hi := g.Part.Range(o)
			i, _ := slices.BinarySearch(need, Vertex(2*lo))
			j, _ := slices.BinarySearch(need, Vertex(2*hi))
			segs[o] = need[i:j]
		}
		distinct := len(need) - len(segs[me])
		met.GraphFetches += int64(distinct)
		met.GraphCoalesced += int64(remote - distinct)
	})
	// A fetch error is returned after the twin-mark exchange below, the
	// stage's last collective, so no peer is left waiting in it.
	nb, fetchErr := g.fetchNeighbors(r, cfg.Mode, segs)
	middle := func(w Vertex) []Edge {
		if g.owns(w) {
			return g.Out(w)
		}
		return nb[g.Part.Owner(w.Read())].out(w)
	}

	// Mark local reducible edges.
	marked := make([]bool, len(g.edges))
	pairs := 0
	r.Timed(rt.CatOverhead, func() {
		for _, e1 := range g.edges { // u→w
			for _, e2 := range middle(e1.To) { // w→x
				pairs++
				if e2.To == e1.From {
					continue
				}
				i, ok := g.find(e1.From, e2.To)
				if !ok {
					continue
				}
				d := e1.Len + e2.Len - g.edges[i].Len
				if d < 0 {
					d = -d
				}
				if d <= int32(cfg.Fuzz) {
					marked[i] = true
				}
			}
		}
	})
	cfg.Model.charge(r, rt.CatOverhead, cfg.Model.prices().PerPair, pairs)

	// Symmetrize removal: tell the twin's owner about every mark, so twin
	// pairs always live or die together (duplicate-overlap dedup can give
	// the two directions different labels, and the contig walk depends on
	// indeg(v) == outdeg(twin(v)) holding exactly).
	send := make([][]byte, p)
	r.Timed(rt.CatOverhead, func() {
		for i, m := range marked {
			if !m {
				continue
			}
			tf, tt := g.edges[i].To.Twin(), g.edges[i].From.Twin()
			dst := g.Part.Owner(tf.Read())
			send[dst] = appendMark(send[dst], tf, tt)
		}
	})
	recv := r.Alltoallv(send)
	if fetchErr != nil {
		return nil, fetchErr
	}
	var symErr error
	r.Timed(rt.CatOverhead, func() {
		for src := 0; src < p; src++ {
			marks, err := decodeMarks(recv[src])
			if err != nil {
				symErr = fmt.Errorf("from rank %d: %w", src, err)
				return
			}
			for _, m := range marks {
				if !g.owns(m[0]) {
					symErr = fmt.Errorf("graph: rank %d received twin mark %v→%v it does not own", me, m[0], m[1])
					return
				}
				if i, ok := g.find(m[0], m[1]); ok {
					marked[i] = true
				}
			}
		}
	})
	if symErr != nil {
		return nil, symErr
	}

	var out *Graph
	r.Timed(rt.CatOverhead, func() {
		keep := make([]Edge, 0, len(g.edges))
		for i, e := range g.edges {
			if !marked[i] {
				keep = append(keep, e)
			}
		}
		out = newGraph(g.Part, me, g.Lens, g.Contained, keep)
	})
	return out, nil
}
