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
// rank has no adjacency for (including ones it does not own) answer 0.
func (g *Graph) answerAdjReq(req []byte) ([]byte, error) {
	if len(req)%8 != 0 {
		return nil, fmt.Errorf("graph: adjacency request of %d bytes", len(req))
	}
	resp := make([]byte, 0, len(req))
	for off := 0; off < len(req); off += 8 {
		v := Vertex(binary.LittleEndian.Uint64(req[off:]))
		es := g.Adj[v]
		resp = binary.LittleEndian.AppendUint32(resp, uint32(len(es)))
		for _, e := range es {
			resp = binary.LittleEndian.AppendUint64(resp, uint64(e.To))
			resp = binary.LittleEndian.AppendUint32(resp, uint32(e.Len))
		}
	}
	return resp, nil
}

// parseAdjResp unpacks answerAdjReq's response into neigh[ids[i]].
func parseAdjResp(ids []Vertex, resp []byte, neigh map[Vertex][]Edge) error {
	off := 0
	for _, v := range ids {
		if off+4 > len(resp) {
			return fmt.Errorf("graph: truncated adjacency response")
		}
		n := int(binary.LittleEndian.Uint32(resp[off:]))
		off += 4
		if off+12*n > len(resp) {
			return fmt.Errorf("graph: truncated adjacency response")
		}
		es := make([]Edge, 0, n)
		for i := 0; i < n; i++ {
			es = append(es, Edge{
				From: v,
				To:   Vertex(binary.LittleEndian.Uint64(resp[off:])),
				Len:  int32(binary.LittleEndian.Uint32(resp[off+8:])),
			})
			off += 12
		}
		neigh[v] = es
	}
	if off != len(resp) {
		return fmt.Errorf("graph: %d trailing bytes in adjacency response", len(resp)-off)
	}
	return nil
}

// fetchNeighbors resolves the out-adjacency of every vertex in need
// (deduplicated, sorted per owner). Local vertices are answered from
// g.Adj; remote ones via one alltoallv exchange (bsp) or one batched
// AsyncCall per owner (async).
func (g *Graph) fetchNeighbors(r rt.Runtime, mode string, need map[Vertex]bool) (map[Vertex][]Edge, error) {
	p, me := r.Size(), r.Rank()
	neigh := make(map[Vertex][]Edge, len(need))
	perOwner := make([][]Vertex, p)
	for v := range need {
		if o := g.Part.Owner(v.Read()); o == me {
			neigh[v] = g.Adj[v]
		} else {
			perOwner[o] = append(perOwner[o], v)
		}
	}
	for _, ids := range perOwner {
		SortVertices(ids)
		// Each distinct remote vertex costs exactly one wire record per
		// requesting rank, whatever the mode.
		r.Metrics().GraphFetches += int64(len(ids))
	}

	switch mode {
	case "", "bsp":
		req := make([][]byte, p)
		for o, ids := range perOwner {
			if len(ids) == 0 {
				continue
			}
			buf := make([]byte, 0, 8*len(ids))
			for _, v := range ids {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
			}
			req[o] = buf
		}
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
			return nil, err
		}
		for o, ids := range perOwner {
			if len(ids) == 0 {
				continue
			}
			if err := parseAdjResp(ids, answers[o], neigh); err != nil {
				return nil, fmt.Errorf("from rank %d: %w", o, err)
			}
		}
		return neigh, nil

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
		for o, ids := range perOwner {
			if len(ids) == 0 {
				continue
			}
			buf := make([]byte, 0, 8*len(ids))
			for _, v := range ids {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
			}
			ids := ids
			r.AsyncCall(o, buf, func(resp []byte) {
				if err := parseAdjResp(ids, resp, neigh); err != nil && perr == nil {
					perr = fmt.Errorf("from rank %d: %w", o, err)
				}
			})
		}
		r.Drain(0)
		r.Barrier() // keep serving peers still fetching
		return neigh, perr
	}
	return nil, fmt.Errorf("graph: unknown reduce mode %q", mode)
}

// SortVertices orders a vertex list ascending.
func SortVertices(vs []Vertex) {
	for i := 1; i < len(vs); i++ { // insertion sort: lists are small and nearly sorted
		for j := i; j > 0 && vs[j] < vs[j-1]; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}

// Reduce returns the transitively reduced graph. Collective; g is not
// modified. The output on every rank is a pure function of the global
// input graph — mode and rank count never change which edges survive.
func Reduce(r rt.Runtime, g *Graph, cfg ReduceConfig) (*Graph, error) {
	// Which middle-vertex adjacencies does this rank need? Every To of a
	// local edge.
	need := make(map[Vertex]bool)
	me := r.Rank()
	met := r.Metrics()
	r.Timed(rt.CatOverhead, func() {
		for _, es := range g.Adj {
			for _, e := range es {
				// A repeated remote middle vertex is a lookup the need-map
				// dedup saved from the wire.
				if need[e.To] && g.Part.Owner(e.To.Read()) != me {
					met.GraphCoalesced++
				}
				need[e.To] = true
			}
		}
	})
	// A fetch error is returned after the twin-mark exchange below, the
	// stage's last collective, so no peer is left waiting in it.
	neigh, fetchErr := g.fetchNeighbors(r, cfg.Mode, need)

	// Mark local reducible edges.
	local := g.EdgeList()
	idx := make(map[[2]Vertex]int, len(local))
	for i, e := range local {
		idx[[2]Vertex{e.From, e.To}] = i
	}
	marked := make([]bool, len(local))
	pairs := 0
	r.Timed(rt.CatOverhead, func() {
		for _, e1 := range local { // u→w
			for _, e2 := range neigh[e1.To] { // w→x
				pairs++
				if e2.To == e1.From {
					continue
				}
				i, ok := idx[[2]Vertex{e1.From, e2.To}]
				if !ok {
					continue
				}
				d := e1.Len + e2.Len - local[i].Len
				if d < 0 {
					d = -d
				}
				if d <= int32(cfg.Fuzz) {
					marked[i] = true
				}
			}
		}
	})
	cfg.Model.charge(r, rt.CatOverhead, cfg.Model.perPair(), pairs)

	// Symmetrize removal: tell the twin's owner about every mark, so twin
	// pairs always live or die together (duplicate-overlap dedup can give
	// the two directions different labels, and the contig walk depends on
	// indeg(v) == outdeg(twin(v)) holding exactly).
	p, me := r.Size(), r.Rank()
	send := make([][]byte, p)
	r.Timed(rt.CatOverhead, func() {
		for i, m := range marked {
			if !m {
				continue
			}
			tf, tt := local[i].To.Twin(), local[i].From.Twin()
			dst := g.Part.Owner(tf.Read())
			var rec [16]byte
			binary.LittleEndian.PutUint64(rec[0:], uint64(tf))
			binary.LittleEndian.PutUint64(rec[8:], uint64(tt))
			send[dst] = append(send[dst], rec[:]...)
		}
	})
	recv := r.Alltoallv(send)
	if fetchErr != nil {
		return nil, fetchErr
	}
	var symErr error
	r.Timed(rt.CatOverhead, func() {
		for src := 0; src < p; src++ {
			buf := recv[src]
			if len(buf)%16 != 0 {
				symErr = fmt.Errorf("graph: twin-mark payload from rank %d is %d bytes", src, len(buf))
				return
			}
			for off := 0; off < len(buf); off += 16 {
				f := Vertex(binary.LittleEndian.Uint64(buf[off:]))
				t := Vertex(binary.LittleEndian.Uint64(buf[off+8:]))
				if g.Part.Owner(f.Read()) != me {
					symErr = fmt.Errorf("graph: rank %d received twin mark %v→%v it does not own", me, f, t)
					return
				}
				if i, ok := idx[[2]Vertex{f, t}]; ok {
					marked[i] = true
				}
			}
		}
	})
	if symErr != nil {
		return nil, symErr
	}

	out := &Graph{Part: g.Part, Lens: g.Lens, Contained: g.Contained, Adj: make(map[Vertex][]Edge)}
	r.Timed(rt.CatOverhead, func() {
		for i, e := range local {
			if marked[i] {
				continue
			}
			out.Adj[e.From] = append(out.Adj[e.From], e)
			out.NumEdges++
		}
	})
	return out, nil
}

// ReduceOracle is the brute-force serial reference: test every edge
// against every possible two-edge explanation, then symmetrize. Quadratic
// in the edge count — test-only, the property tests pit Reduce against it
// on random graphs.
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
