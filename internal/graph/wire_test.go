package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gnbody/internal/par"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
)

// forgedVertices are ids no rank's adjacency holds in a graph over n reads:
// the first vertex past the last read, its twin, and the top of the range.
func forgedVertices(n int) []Vertex {
	return []Vertex{Vertex(2 * n), Vertex(2*n + 1), ^Vertex(0)}
}

// TestAdjacencyRequestOutsidePartition: an adjacency request naming vertices
// the receiving rank does not own — another rank's, or ids at or past
// 2·len(Lens) — is answered with zero edges, never an index out of range,
// in both reduce modes; a twin mark naming such a vertex ends the stage in
// an error on the rank that received it.
func TestAdjacencyRequestOutsidePartition(t *testing.T) {
	const p = 3
	edges, lens := randomTwinGraph(rand.New(rand.NewSource(3)), 30, 120)
	pt := sizePartition(t, lens, p)
	lo2, _ := pt.Range(2)
	foreign := append([]Vertex{V(0, false), V(seq.ReadID(lo2), true)}, forgedVertices(len(lens))...)

	g1 := ownGraph(pt, 1, lens, make([]bool, len(lens)), edges)
	var req []byte
	for _, v := range foreign {
		req = binary.LittleEndian.AppendUint64(req, uint64(v))
	}
	if resp, err := g1.answerAdjReq(req); err != nil || !bytes.Equal(resp, make([]byte, 4*len(foreign))) {
		t.Fatalf("rank 1 answers %v with %v (err %v), want %d zero counts", foreign, resp, err, len(foreign))
	}

	// forge replaces every vertex of a request with one rank 0 does not own.
	forge := func(sent []byte) []byte {
		out := make([]byte, 0, len(sent))
		for i := 0; i < len(sent)/8; i++ {
			out = binary.LittleEndian.AppendUint64(out, uint64(foreign[1+i%(len(foreign)-1)]))
		}
		return out
	}
	for _, tc := range []struct {
		name, mode, want string
		call             int // rank 1's Alltoallv call to rewrite; -1 rewrites its RPCs
		mutate           func([]byte) []byte
	}{
		{"bsp request", "bsp", "", 0, forge},
		{"async request", "async", "", -1, forge},
		{"bsp twin mark past the graph", "bsp", "twin mark", 2, func([]byte) []byte {
			return appendMark(nil, Vertex(2*len(lens)), V(0, false))
		}},
		{"async twin mark of another rank", "async", "twin mark", 0, func([]byte) []byte {
			return appendMark(nil, V(seq.ReadID(lo2), false), V(0, false))
		}},
		{"async twin mark at the top of the range", "async", "twin mark", 0, func([]byte) []byte {
			return appendMark(nil, ^Vertex(0), V(0, false))
		}},
	} {
		world, err := par.NewWorld(par.Config{P: p})
		if err != nil {
			t.Fatal(err)
		}
		forged := 0
		mutate := func(sent []byte) []byte { forged += len(sent); return tc.mutate(sent) }
		errs := make([]error, p)
		mustRun(t, world.Run)(func(r rt.Runtime) {
			rk := r.Rank()
			if cr := (&corruptingRuntime{Runtime: r, call: tc.call, mutate: mutate}); rk == 1 && tc.call < 0 {
				r = cr
			} else if rk == 1 {
				r = collectivesOnly{cr}
			}
			_, errs[rk] = Reduce(r, ownGraph(pt, rk, lens, make([]bool, len(lens)), edges), ReduceConfig{Mode: tc.mode})
		})
		if tc.want == "" {
			if forged == 0 {
				t.Errorf("%s: rank 1 sent rank 0 no request to forge", tc.name)
			}
			for rk, err := range errs {
				if err != nil {
					t.Errorf("%s: rank %d returned %v, want the forged vertices answered with no edges", tc.name, rk, err)
				}
			}
			continue
		}
		if errs[0] == nil || !strings.Contains(errs[0].Error(), tc.want) {
			t.Errorf("%s: rank 0 returned %v, want an error naming the %s", tc.name, errs[0], tc.want)
		}
		if errs[1] != nil || errs[2] != nil {
			t.Errorf("%s: ranks 1 and 2 returned %v, %v, want success", tc.name, errs[1], errs[2])
		}
	}
}

// TestBuildRejectsEdgeOutsideGraph: an edge record whose To lies past the
// last read — which Reduce would route to an owner that does not exist —
// or whose From is not the receiver's, even one whose read id agrees in its
// low 32 bits, ends Build on the receiving rank in an error.
func TestBuildRejectsEdgeOutsideGraph(t *testing.T) {
	const p = 2
	lens := []int32{400, 400, 400, 400}
	pt := sizePartition(t, lens, p)
	for _, forged := range []Edge{
		{From: V(0, false), To: Vertex(2 * len(lens)), Len: 10},
		{From: 1 << 33, To: V(1, false), Len: 10}, // read 1<<32 truncates to read 0
	} {
		world, err := par.NewWorld(par.Config{P: p})
		if err != nil {
			t.Fatal(err)
		}
		errs := make([]error, p)
		mustRun(t, world.Run)(func(r rt.Runtime) {
			rk := r.Rank()
			if rk == 1 { // the edge exchange is Build's second Alltoallv
				r = &corruptingRuntime{Runtime: r, call: 1, mutate: func([]byte) []byte {
					return appendEdge(nil, forged)
				}}
			}
			_, errs[rk] = Build(r, pt, lens, nil, BuildConfig{})
		})
		if errs[0] == nil || !strings.Contains(errs[0].Error(), "does not own or that leaves the graph") {
			t.Errorf("rank 0 returned %v for the forged edge %v→%v, want an error", errs[0], forged.From, forged.To)
		}
	}
}

// collectivesOnly rewrites a collective as its corruptingRuntime says and
// passes RPCs through untouched.
type collectivesOnly struct{ *corruptingRuntime }

func (c collectivesOnly) AsyncCall(owner int, req []byte, cb func([]byte)) {
	c.Runtime.AsyncCall(owner, req, cb)
}

// maxFuzzGraphFrame is the longest frame FuzzGraphWire decodes: a few
// records of every kind. A longer frame only repeats records, and the
// engine minimizes a new input in time quadratic in its length;
// unbounded, one minimization held both workers at 0 execs a second.
// TestGraphWireSeeds runs every seed, the longer ones included.
const maxFuzzGraphFrame = 256

// graphWireSeed is one named FuzzGraphWire seed.
type graphWireSeed struct {
	name string
	data []byte
}

// graphWireSeeds builds rank 1's graph of a small random twin graph, its
// own vertices (the request the response seeds answer), and the seeds:
// its edge records, that request, the answer and the answer cut by a
// byte, twin marks, and a contig frame.
func graphWireSeeds(tb testing.TB) (*Graph, []Vertex, []graphWireSeed) {
	edges, lens := randomTwinGraph(rand.New(rand.NewSource(5)), 12, 40)
	pt := sizePartition(tb, lens, 2)
	g := ownGraph(pt, 1, lens, make([]bool, len(lens)), edges)
	lo, hi := pt.Range(1)
	var own []Vertex
	var req []byte
	for v := Vertex(2 * lo); v < Vertex(2*hi); v++ {
		own = append(own, v)
		req = binary.LittleEndian.AppendUint64(req, uint64(v))
	}
	resp, err := g.answerAdjReq(req)
	if err != nil {
		tb.Fatal(err)
	}
	var recs []byte
	for _, e := range g.edges {
		recs = appendEdge(recs, e)
	}
	return g, own, []graphWireSeed{
		{"edges", recs},
		{"request", req},
		{"response", resp},
		{"marks", appendMark(appendMark(nil, V(1, true), V(2, false)), forgedVertices(len(lens))[0], 0)},
		{"response-cut", resp[:len(resp)-1]},
		{"contigs", encodeContigs([]Contig{{Start: 3, Reads: 2, Circular: true, Seq: seq.MustFromString("ACGTN")}, {Start: 8, Reads: 1}})},
	}
}

// FuzzGraphWire feeds arbitrary bytes to the graph stages' peer decoders
// (graphWireInput) up to maxFuzzGraphFrame bytes.
func FuzzGraphWire(f *testing.F) {
	g, own, seeds := graphWireSeeds(f)
	for _, s := range seeds {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxFuzzGraphFrame {
			return
		}
		graphWireInput(t, g, own, data)
	})
}

// TestGraphWireSeeds runs FuzzGraphWire's checks on every seed, whatever
// its length: the edge records and the answers are longer than the fuzz
// cap, and they are what shows that a real answer parses and re-encodes
// byte for byte, a cut one is rejected, and a multi-record edge frame
// round-trips.
func TestGraphWireSeeds(t *testing.T) {
	g, own, seeds := graphWireSeeds(t)
	for _, s := range seeds {
		t.Run(s.name, func(t *testing.T) { graphWireInput(t, g, own, s.data) })
	}
}

// graphWireInput feeds data to the graph stages' peer decoders: as edge
// records (decodeEdges), as an adjacency request answered by g and parsed
// back by the requester (answerAdjReq → parseAdjResp), as an adjacency
// response to a request for own, as a twin-mark payload, and as a
// gathered contig frame (decodeContigs). None may panic; input whose
// length is no whole number of records must be rejected, and contig bases
// that are no base codes with a BadBasesError naming the sender; and
// whatever a decoder accepts must re-encode to exactly its bytes.
func graphWireInput(t *testing.T, g *Graph, own []Vertex, data []byte) {
	t.Helper()
	es, err := decodeEdges(data)
	if len(data)%edgeWire != 0 && err == nil {
		t.Fatalf("%d bytes decode as %d edges", len(data), len(es))
	}
	if err == nil {
		var again []byte
		for _, e := range es {
			again = appendEdge(again, e)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("edges re-encode to different bytes")
		}
	}

	out, err := g.answerAdjReq(data)
	if len(data)%8 != 0 && err == nil {
		t.Fatalf("%d-byte request answered", len(data))
	}
	if err == nil {
		ids := make([]Vertex, len(data)/8)
		for i := range ids {
			ids[i] = Vertex(binary.LittleEndian.Uint64(data[8*i:]))
		}
		back, err := parseAdjResp(ids, out)
		if err != nil {
			t.Fatalf("the requester rejects the answer: %v", err)
		}
		for i, v := range ids {
			if got := back.edges[back.off[i]:back.off[i+1]]; !slices.Equal(got, g.Out(v)) {
				t.Fatalf("vertex %v: answered %v, owner holds %v", v, got, g.Out(v))
			}
		}
	}

	if back, err := parseAdjResp(own, data); err == nil {
		var again []byte
		for i := range own {
			again = appendAdj(again, back.edges[back.off[i]:back.off[i+1]])
		}
		if !bytes.Equal(again, data) {
			t.Fatal("adjacency response re-encodes to different bytes")
		}
	}

	marks, err := decodeMarks(data)
	if len(data)%markWire != 0 && err == nil {
		t.Fatalf("%d bytes decode as %d twin marks", len(data), len(marks))
	}
	if err == nil {
		var again []byte
		for _, m := range marks {
			again = appendMark(again, m[0], m[1])
		}
		if !bytes.Equal(again, data) {
			t.Fatal("twin marks re-encode to different bytes")
		}
	}

	cs, err := decodeContigs(1, data)
	var be *BadBasesError
	switch {
	case err == nil && !bytes.Equal(encodeContigs(cs), data):
		t.Fatal("contigs re-encode to different bytes")
	case errors.As(err, &be) && (be.From != 1 || be.Code < seq.NumBases || data[be.Offset] != be.Code):
		t.Fatalf("bad-bases error %+v on % x", be, data)
	}
}
