// Package graph builds the assembly string graph from the overlap phase's
// hit set and carries it through transitive reduction to contigs — the
// follow-on passes of the DiBELLA pipeline (Guidi et al., arXiv 2010.10055
// and 2207.04350) expressed as SPMD stages on the same rt.Runtime the
// overlap drivers use.
//
// The graph is bidirected in the Myers string-graph sense, flattened onto
// oriented vertices: every read r contributes two vertices (r,+) and
// (r,−), and every proper dovetail overlap contributes one edge and its
// twin — edge u→v coexists with twin(v)→twin(u), so a rank that owns a
// read locally knows both the out-adjacency of its vertices and (via the
// twin) their in-degrees. Vertices are partitioned by read owner, exactly
// like the reads themselves, so the graph inherits the pipeline's
// owner-only residency story: a rank holds the adjacency of its own reads
// and nothing else, and remote adjacency moves through the same
// alltoallv/RPC primitives as remote bases do in the overlap phase.
package graph

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"gnbody/internal/align"
	"gnbody/internal/core"
	"gnbody/internal/overlap"
	"gnbody/internal/partition"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
)

// Vertex is an oriented read: read id in the high bits, orientation in
// bit 0 (0 = forward, 1 = reverse complement).
type Vertex uint64

// V makes the vertex for read id in the given orientation.
func V(id seq.ReadID, rev bool) Vertex {
	v := Vertex(id) << 1
	if rev {
		v |= 1
	}
	return v
}

// Read returns the vertex's read.
func (v Vertex) Read() seq.ReadID { return seq.ReadID(v >> 1) }

// Rev reports whether the vertex is the read's reverse complement.
func (v Vertex) Rev() bool { return v&1 == 1 }

// Twin returns the same read in the opposite orientation.
func (v Vertex) Twin() Vertex { return v ^ 1 }

// String renders "id+" / "id-".
func (v Vertex) String() string {
	s := "+"
	if v.Rev() {
		s = "-"
	}
	return fmt.Sprintf("%d%s", v.Read(), s)
}

// Edge u→w means: walking a contig that currently ends with oriented read
// u, oriented read w continues it, appending its last Len bases (the part
// of w sticking out past u). Edges always come in twin pairs — u→w
// coexists with twin(w)→twin(u), generally with a different Len (the
// overhang at the other end of the overlap).
type Edge struct {
	From, To Vertex
	Len      int32
}

// edgeWire is the fixed wire size of one edge record: From, To (8B), Len (4B).
const edgeWire = 20

func appendEdge(dst []byte, e Edge) []byte {
	var rec [edgeWire]byte
	binary.LittleEndian.PutUint64(rec[0:], uint64(e.From))
	binary.LittleEndian.PutUint64(rec[8:], uint64(e.To))
	binary.LittleEndian.PutUint32(rec[16:], uint32(e.Len))
	return append(dst, rec[:]...)
}

func decodeEdges(buf []byte) ([]Edge, error) {
	if len(buf)%edgeWire != 0 {
		return nil, fmt.Errorf("graph: edge payload of %d bytes is not a multiple of %d", len(buf), edgeWire)
	}
	out := make([]Edge, 0, len(buf)/edgeWire)
	for off := 0; off < len(buf); off += edgeWire {
		out = append(out, Edge{
			From: Vertex(binary.LittleEndian.Uint64(buf[off:])),
			To:   Vertex(binary.LittleEndian.Uint64(buf[off+8:])),
			Len:  int32(binary.LittleEndian.Uint32(buf[off+16:])),
		})
	}
	return out, nil
}

// SortEdges orders edges canonically: (From, To, Len).
func SortEdges(es []Edge) { slices.SortFunc(es, cmpEdges) }

func cmpEdges(a, b Edge) int {
	if a.From != b.From {
		return cmp.Compare(a.From, b.From)
	}
	if a.To != b.To {
		return cmp.Compare(a.To, b.To)
	}
	return cmp.Compare(a.Len, b.Len)
}

// dedupEdges collapses duplicate (From, To) pairs in a sorted edge list,
// keeping the smallest Len (the tightest overlap wins, deterministically).
func dedupEdges(es []Edge) []Edge {
	return slices.CompactFunc(es, func(a, b Edge) bool { return a.From == b.From && a.To == b.To })
}

// Graph is one rank's partition of the string graph: the out-adjacency of
// every vertex whose read this rank owns, plus the (replicated, small)
// containment verdicts.
//
// The adjacency is a CSR over the rank's own oriented vertices: edges holds
// every local edge sorted by (From, To, Len), one per (From, To), and the
// out-edges of the vertex with read id and orientation o are
// edges[off[i]:off[i+1]] for i = 2·(id−lo)+o, where lo is the rank's first
// read — i = v−base for base = 2·lo.
type Graph struct {
	Part *partition.Partition
	Lens []int32

	// Contained marks reads removed from the graph because an alignment
	// covers them end to end; replicated on every rank (the same O(n)
	// exception as the length vector).
	Contained []bool

	// NumEdges is this rank's live (local) edge count.
	NumEdges int

	base  Vertex
	off   []int32
	edges []Edge
}

// newGraph indexes rank me's edges — every From owned by me, in any order,
// duplicates allowed — as a CSR, in place in the slice it takes over:
// core.GroupBy gathers the rows by From, then each row is sorted and
// deduplicated as SortEdges and dedupEdges do (the smallest Len per To
// wins) and moved left over the duplicates dropped before it. Rows are
// short, so this beats one sort of the whole list (EXPERIMENTS.md, "Back
// half without maps").
func newGraph(part *partition.Partition, me int, lens []int32, contained []bool, edges []Edge) *Graph {
	lo, hi := part.Range(me)
	base := Vertex(2 * lo)
	off := core.GroupBy(edges, 2*(hi-lo), func(e Edge) int { return int(e.From - base) })
	n := int32(0)
	for i := 0; i+1 < len(off); i++ {
		row := edges[off[i]:off[i+1]]
		SortEdges(row)
		off[i] = n
		n += int32(copy(edges[n:], dedupEdges(row)))
	}
	off[len(off)-1] = n
	return &Graph{Part: part, Lens: lens, Contained: contained, NumEdges: int(n),
		base: base, off: off, edges: edges[:n]}
}

// Out returns v's out-edges, sorted by To. It is nil for a vertex this rank
// does not own, including any at or past 2·len(Lens).
func (g *Graph) Out(v Vertex) []Edge {
	if !g.owns(v) {
		return nil
	}
	i := v - g.base
	return g.edges[g.off[i]:g.off[i+1]]
}

// owns reports whether v is one of this rank's vertices.
func (g *Graph) owns(v Vertex) bool {
	return uint64(v-g.base) < uint64(len(g.off)-1) // v−base wraps for v below base
}

// find returns the index in g.edges of the edge from→to.
func (g *Graph) find(from, to Vertex) (int, bool) {
	row := g.Out(from)
	j, ok := slices.BinarySearchFunc(row, to, func(e Edge, to Vertex) int { return cmp.Compare(e.To, to) })
	if !ok {
		return 0, false
	}
	return int(g.off[from-g.base]) + j, true
}

// Verdict classifies one hit for graph construction.
type Verdict int

// Hit verdicts.
const (
	// VerdictInternal: the alignment reaches neither end of either read —
	// a false-positive candidate; contributes nothing.
	VerdictInternal Verdict = iota
	// VerdictContainA: read A is covered end to end; A leaves the graph.
	VerdictContainA
	// VerdictContainB: read B is covered end to end; B leaves the graph.
	VerdictContainB
	// VerdictDovetail: a proper suffix-prefix overlap; contributes an edge
	// and its twin.
	VerdictDovetail
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictContainA:
		return "contain-a"
	case VerdictContainB:
		return "contain-b"
	case VerdictDovetail:
		return "dovetail"
	}
	return "internal"
}

// ClassifyHit interprets one saved alignment as string-graph material.
// The hit must be canonical (A < B, as core.CanonicalizeHits produces).
// slack tolerates unaligned overhang at each read end (sequencing errors
// rarely let the extension reach the last base); minOverlap discards
// alignments whose span on either read is shorter. For VerdictDovetail
// the returned pair is the edge and its twin; both Lens are strictly
// positive (a zero overhang means containment and is classified as such).
func ClassifyHit(h core.Hit, lenA, lenB int32, slack, minOverlap int) (Verdict, [2]Edge) {
	var none [2]Edge
	if h.AEnd-h.AStart < int32(minOverlap) || h.BEnd-h.BStart < int32(minOverlap) {
		return VerdictInternal, none
	}
	// Guard malformed extents (fuzzed or foreign hits): anything outside
	// the read bounds is not interpretable as an overlap.
	if h.AStart < 0 || h.BStart < 0 || h.AEnd > lenA || h.BEnd > lenB ||
		h.AStart >= h.AEnd || h.BStart >= h.BEnd {
		return VerdictInternal, none
	}
	// Mutual containment (both reads covered end to end within slack) is
	// ambiguous — overlap.Classify reports whichever case it tests first.
	// Break the tie by length (the shorter read is the contained one),
	// then by id, so the verdict never depends on which side of the
	// symmetric record the classifier saw.
	s := int32(slack)
	aCov := h.AStart <= s && h.AEnd >= lenA-s
	bCov := h.BStart <= s && h.BEnd >= lenB-s
	if aCov && bCov {
		if lenA < lenB || (lenA == lenB && h.A > h.B) {
			return VerdictContainA, none
		}
		return VerdictContainB, none
	}
	res := align.Result{Score: int(h.Score),
		AStart: int(h.AStart), AEnd: int(h.AEnd),
		BStart: int(h.BStart), BEnd: int(h.BEnd)}
	switch overlap.Classify(res, int(lenA), int(lenB), slack) {
	case overlap.ContainsB:
		return VerdictContainB, none
	case overlap.ContainedInB:
		return VerdictContainA, none
	case overlap.SuffixPrefix:
		// A precedes oriented B. When the hit is opposite-strand the B
		// extents already live on revcomp(B), so the oriented vertex is
		// (B, reverse).
		if lenB-h.BEnd <= 0 {
			return VerdictContainB, none // B adds nothing past A
		}
		if h.AStart <= 0 {
			return VerdictContainA, none // all of A is inside oriented B
		}
		return VerdictDovetail, [2]Edge{
			{From: V(h.A, false), To: V(h.B, h.RC), Len: lenB - h.BEnd},
			{From: V(h.B, !h.RC), To: V(h.A, true), Len: h.AStart},
		}
	case overlap.PrefixSuffix:
		// Oriented B precedes A.
		if lenA-h.AEnd <= 0 {
			return VerdictContainA, none
		}
		if h.BStart <= 0 {
			return VerdictContainB, none
		}
		return VerdictDovetail, [2]Edge{
			{From: V(h.B, h.RC), To: V(h.A, false), Len: lenA - h.AEnd},
			{From: V(h.A, true), To: V(h.B, !h.RC), Len: h.BStart},
		}
	}
	return VerdictInternal, none
}

// EdgeList returns a copy of the graph's local edges, sorted.
func (g *Graph) EdgeList() []Edge {
	return append(make([]Edge, 0, len(g.edges)), g.edges...)
}

// GatherEdges collects every rank's local edge list on rank 0, canonically
// sorted; other ranks return nil. Collective — every rank calls it with its
// own EdgeList. With owner-partitioned edges the union is exactly the
// global edge set, so the result is independent of how the graph was
// distributed.
func GatherEdges(r rt.Runtime, local []Edge) ([]Edge, error) {
	send := make([][]byte, r.Size())
	buf := make([]byte, 0, len(local)*edgeWire)
	for _, e := range local {
		buf = appendEdge(buf, e)
	}
	send[0] = buf
	recv := r.Alltoallv(send)
	if r.Rank() != 0 {
		return nil, nil
	}
	var out []Edge
	for rk, b := range recv {
		es, err := decodeEdges(b)
		if err != nil {
			return nil, fmt.Errorf("graph: gather from rank %d: %w", rk, err)
		}
		out = append(out, es...)
	}
	SortEdges(out)
	return out, nil
}

// WriteEdgeTSV renders an edge list as TSV: one "# contained <name>" line
// per removed read, then one "from\tfdir\tto\ttdir\tlen" line per edge.
// With a canonical (sorted, gathered) edge list the output is
// byte-identical across backends — the conformance battery compares runs
// at exactly this level.
func WriteEdgeTSV(w io.Writer, edges []Edge, contained []bool, name func(seq.ReadID) string) error {
	dir := func(v Vertex) string {
		if v.Rev() {
			return "-"
		}
		return "+"
	}
	for id, c := range contained {
		if !c {
			continue
		}
		if _, err := fmt.Fprintf(w, "# contained\t%s\n", name(seq.ReadID(id))); err != nil {
			return err
		}
	}
	for _, e := range edges {
		if _, err := fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%d\n",
			name(e.From.Read()), dir(e.From), name(e.To.Read()), dir(e.To), e.Len); err != nil {
			return err
		}
	}
	return nil
}
