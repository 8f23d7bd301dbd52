// Contig generation: walk the unbranched paths of the reduced string
// graph and emit their sequences. A vertex v is *mergeable* — absorbed
// into the middle of a contig — iff it has exactly one predecessor and
// that predecessor has exactly one successor; every non-mergeable vertex
// of a live read starts a walk, which extends while the next vertex is
// mergeable. Each contig therefore materialises twice, once per strand;
// the walk with the lexicographically smaller vertex path is the one that
// emits. Perfect cycles (every vertex mergeable) get a second pass that
// elects the minimum vertex of the cycle as the emitter.
//
// Distribution (DESIGN.md §15, §13): three bulk collectives, whatever the
// chain lengths. Every rank encodes one fixed-width link row per oriented
// live read it owns — out-degree class and, when that is 1, the successor
// and the bases it appends — and replicates its rows to every rank in one
// alltoallv. In-degree is the twin's out-degree and a predecessor's
// out-degree is the predecessor's row, so the table answers every question
// a walk asks: walks run locally, from the rank's own start vertices, and
// never miss. The remote base suffixes the finished walks append then
// arrive in one batched alltoallv request/response pair.
package graph

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sort"

	"gnbody/internal/rt"
	"gnbody/internal/seq"
)

// Contig is one assembled sequence: the oriented read it starts with, how
// many reads the walk merged, and the bases.
type Contig struct {
	Start    Vertex
	Reads    int32
	Circular bool
	Seq      seq.Seq
}

// ContigConfig parameterises contig generation.
type ContigConfig struct {
	// MinReads discards contigs assembled from fewer reads (0 keeps all,
	// including unassembled singleton reads).
	MinReads int
	// Model prices the stage on the simulator backend; nil elsewhere.
	Model *CostModel
}

// One link row on the wire: out-degree class (1 B), then — meaningful only
// for degOne — the successor vertex (8 B) and the bases it appends (4 B).
const (
	linkRow = 13

	degNone = 0
	degOne  = 1
	degMany = 2 // two or more: the walk rules only ever ask "is it 1?"
)

// linkTable is the replicated chain-link table: per owner rank, the
// payload that rank sent — two rows (forward, reverse) per live read in id
// order. Contained reads have no rows; Contained is replicated, so every
// rank computes the same live index and no key travels. Rows are read in
// place out of the alltoallv buffers.
type linkTable struct {
	g *Graph // this rank's partition: Part, Lens and Contained are global
	// liveBefore[id] counts the non-contained reads with a smaller id.
	liveBefore []int32
	rows       [][]byte
}

// vrec is the walker's view of one vertex, as degree classes. predOut is
// the out-degree class of the sole predecessor, valid only when indeg is
// degOne; succ/succLen are the single out-edge, valid only when outdeg is
// degOne.
type vrec struct {
	outdeg, indeg, predOut byte
	succ                   Vertex
	succLen                int32
}

func newLinkTable(g *Graph) *linkTable {
	t := &linkTable{g: g, liveBefore: make([]int32, len(g.Contained)+1)}
	for id, c := range g.Contained {
		t.liveBefore[id+1] = t.liveBefore[id]
		if !c {
			t.liveBefore[id+1]++
		}
	}
	return t
}

// live is the number of row pairs rank q contributes: its live reads.
func (t *linkTable) live(q int) int {
	lo, hi := t.g.Part.Range(q)
	return int(t.liveBefore[hi] - t.liveBefore[lo])
}

// encode renders this rank's rows from its adjacency.
func (t *linkTable) encode(me int) []byte {
	lo, hi := t.g.Part.Range(me)
	buf := make([]byte, 0, 2*linkRow*t.live(me))
	for id := lo; id < hi; id++ {
		if t.g.Contained[id] {
			continue
		}
		for _, rev := range [2]bool{false, true} {
			var row [linkRow]byte
			switch es := t.g.Out(V(seq.ReadID(id), rev)); len(es) {
			case 0:
			case 1:
				row[0] = degOne
				binary.LittleEndian.PutUint64(row[1:], uint64(es[0].To))
				binary.LittleEndian.PutUint32(row[9:], uint32(es[0].Len))
			default:
				row[0] = degMany
			}
			buf = append(buf, row[:]...)
		}
	}
	return buf
}

// adopt validates the payloads the table exchange returned and keeps them
// as the table. After it succeeds every row a walk can reach exists: a
// successor is in range and live, so are its twin and — being some live
// vertex's successor's twin — every predecessor, and a suffix length never
// exceeds its read.
func (t *linkTable) adopt(recv [][]byte) error {
	lens, contained := t.g.Lens, t.g.Contained
	for src, buf := range recv {
		if want := 2 * linkRow * t.live(src); len(buf) != want {
			return fmt.Errorf("graph: link table from rank %d is %d bytes, want %d", src, len(buf), want)
		}
		for off := 0; off < len(buf); off += linkRow {
			switch buf[off] {
			case degNone, degMany:
			case degOne:
				succ := binary.LittleEndian.Uint64(buf[off+1:])
				take := binary.LittleEndian.Uint32(buf[off+9:])
				if succ >= 2*uint64(len(lens)) {
					return fmt.Errorf("graph: link row %d from rank %d: successor %d out of range", off/linkRow, src, succ)
				}
				if id := Vertex(succ).Read(); contained[id] || take > uint32(lens[id]) {
					return fmt.Errorf("graph: link row %d from rank %d: successor %v contained, or %d bases past its %d",
						off/linkRow, src, Vertex(succ), take, lens[id])
				}
			default:
				return fmt.Errorf("graph: link row %d from rank %d: degree class %d", off/linkRow, src, buf[off])
			}
		}
	}
	t.rows = recv
	return nil
}

// row returns the wire row of a live vertex.
func (t *linkTable) row(v Vertex) []byte {
	id := v.Read()
	o := t.g.Part.Owner(id)
	lo, _ := t.g.Part.Range(o)
	i := 2*int(t.liveBefore[id]-t.liveBefore[lo]) + int(v&1)
	return t.rows[o][i*linkRow : (i+1)*linkRow]
}

// rec assembles the walker's view of v: its own row, its twin's row (the
// in-degree) and, when the in-degree is 1, the sole predecessor's row —
// the twin of the twin's successor.
func (t *linkTable) rec(v Vertex) vrec {
	row, twin := t.row(v), t.row(v.Twin())
	rec := vrec{outdeg: row[0], indeg: twin[0]}
	if rec.outdeg == degOne {
		rec.succ = Vertex(binary.LittleEndian.Uint64(row[1:]))
		rec.succLen = int32(binary.LittleEndian.Uint32(row[9:]))
	}
	if rec.indeg == degOne {
		pred := Vertex(binary.LittleEndian.Uint64(twin[1:])).Twin()
		rec.predOut = t.row(pred)[0]
	}
	return rec
}

// mergeable: v continues its predecessor's contig rather than starting
// its own.
func mergeable(rec vrec) bool { return rec.indeg == degOne && rec.predOut == degOne }

// pathKey compares a walk against its twin walk: the contig is emitted by
// whichever strand reads lexicographically smaller as a vertex sequence.
// The twin of path v0..vk is twin(vk)..twin(v0).
func pathLessOrEqualTwin(path []Vertex) bool {
	n := len(path)
	for i := 0; i < n; i++ {
		t := path[n-1-i].Twin()
		if path[i] != t {
			return path[i] < t
		}
	}
	return true // self-twin (palindromic): single emitter anyway
}

// pendContig is a finished walk awaiting sequence assembly: the vertex
// path and, per vertex, the bases it contributes — lens[0] for the start
// (the whole read; on a cycle, only what it appends past the last vertex,
// so a circular contig is exactly one turn), lens[i] the suffix path[i]
// appends.
type pendContig struct {
	path     []Vertex
	lens     []int32
	circular bool
}

// walker runs one rank's walks over the table. path and lens are scratch
// reused across starts; a walk that emits copies them out.
type walker struct {
	t        *linkTable
	minReads int // linear walks merging fewer reads do not emit
	path     []Vertex
	lens     []int32
}

// maxSteps bounds a walk: any simple oriented path is shorter.
func (w *walker) maxSteps() int { return 2*len(w.t.g.Lens) + 2 }

func (w *walker) pend(circular bool) *pendContig {
	return &pendContig{path: slices.Clone(w.path), lens: slices.Clone(w.lens), circular: circular}
}

// tryLinear runs the linear walk from v0; the result is nil when v0 does
// not emit. A walk only exceeds maxSteps over a table no twin-symmetric
// graph produces.
func (w *walker) tryLinear(v0 Vertex) (*pendContig, error) {
	cur := w.t.rec(v0)
	if mergeable(cur) {
		return nil, nil // interior of some other walk
	}
	w.path, w.lens = append(w.path[:0], v0), append(w.lens[:0], w.t.g.Lens[v0.Read()])
	maxSteps := w.maxSteps()
	for cur.outdeg == degOne && len(w.path) < maxSteps {
		next := w.t.rec(cur.succ)
		// Given cur's out-degree is 1, the successor merges iff its
		// in-degree is 1.
		if next.indeg != degOne {
			break
		}
		w.path = append(w.path, cur.succ)
		w.lens = append(w.lens, cur.succLen)
		cur = next
	}
	if len(w.path) >= maxSteps {
		return nil, fmt.Errorf("graph: walk from %v exceeded %d steps; graph is inconsistent", v0, maxSteps)
	}
	if len(w.path) < w.minReads || !pathLessOrEqualTwin(w.path) {
		return nil, nil
	}
	return w.pend(false), nil
}

// tryCycle runs the pure-cycle walk from v0: components where every
// vertex is mergeable, which no linear walk enters. The minimum vertex of
// the cycle emits; walks from larger vertices abort on first sight of a
// smaller one, and the twin cycle is suppressed by the same ≤ rule.
func (w *walker) tryCycle(v0 Vertex) (*pendContig, error) {
	cur := w.t.rec(v0)
	if !mergeable(cur) || cur.outdeg != degOne {
		return nil, nil
	}
	w.path, w.lens = append(w.path[:0], v0), append(w.lens[:0], 0)
	minTwin := v0.Twin()
	closed := false
	maxSteps := w.maxSteps()
	for len(w.path) < maxSteps {
		next, l := cur.succ, cur.succLen
		if next == v0 {
			w.lens[0] = l // the closing edge: what v0 adds past the last vertex
			closed = true
			break
		}
		if next < v0 {
			break // a smaller cycle vertex will emit
		}
		cur = w.t.rec(next)
		if !mergeable(cur) || cur.outdeg != degOne {
			break // not a pure cycle: the linear pass covers it
		}
		w.path = append(w.path, next)
		w.lens = append(w.lens, l)
		minTwin = min(minTwin, next.Twin())
	}
	if len(w.path) >= maxSteps {
		return nil, fmt.Errorf("graph: cycle walk from %v exceeded %d steps", v0, maxSteps)
	}
	if !closed || v0 > minTwin {
		return nil, nil
	}
	return w.pend(true), nil
}

// walkAll runs both passes from every oriented live read rank me owns.
func (w *walker) walkAll(me int) ([]*pendContig, error) {
	var pends []*pendContig
	lo, hi := w.t.g.Part.Range(me)
	for _, try := range [2]func(Vertex) (*pendContig, error){w.tryLinear, w.tryCycle} {
		for id := lo; id < hi; id++ {
			if w.t.g.Contained[id] {
				continue
			}
			for _, rev := range [2]bool{false, true} {
				pc, err := try(V(seq.ReadID(id), rev))
				if err != nil {
					return nil, err
				}
				if pc != nil {
					pends = append(pends, pc)
				}
			}
		}
	}
	return pends, nil
}

// appendOriented appends the last take bases of the oriented read: the
// forward read's tail, or for a reverse vertex the reverse complement of
// the read's head.
func appendOriented[B ~byte](dst []B, rd seq.Seq, rev bool, take int) []B {
	take = min(take, len(rd))
	if !rev {
		for _, b := range rd[len(rd)-take:] {
			dst = append(dst, B(b))
		}
		return dst
	}
	for i := take - 1; i >= 0; i-- {
		dst = append(dst, B(rd[i].Complement()))
	}
	return dst
}

// sufKey identifies one oriented suffix fetch: the vertex and how many
// trailing bases its walk appends.
type sufKey struct {
	v    Vertex
	take int32
}

// BadBasesError reports contig bases from a peer — a suffix response or a
// gathered contig — holding a code that is no base, which would otherwise
// reach the contig FASTA as a '?'.
type BadBasesError struct {
	From   int  // the rank that sent the bytes
	Code   byte // the first code that is no base
	Offset int  // its offset in the frame
}

func (e *BadBasesError) Error() string {
	return fmt.Sprintf("graph: rank %d sent base code %d at offset %d", e.From, e.Code, e.Offset)
}

// suffixes holds the remote suffixes one rank's contigs append: per owner
// the response payload, and per key its offset in it.
type suffixes struct {
	at   map[sufKey]int
	from [][]byte
}

// fetchSuffixes resolves every remote suffix the pending contigs need in
// one batched round: 12-byte (vertex, take) requests — coalesced across
// all walks — answered with the bases back to back in request order (the
// requester knows every length). Collective; ranks with nothing pending
// still serve, and a rank that finds a peer's frame malformed still
// completes both legs before reporting it.
func fetchSuffixes(r rt.Runtime, g *Graph, store seq.Store, pends []*pendContig) (*suffixes, error) {
	p, me := r.Size(), r.Rank()
	met := r.Metrics()
	suf := &suffixes{at: make(map[sufKey]int)}
	req := make([][]byte, p)
	want := make([]int, p) // response bytes owed by each owner
	r.Timed(rt.CatOverhead, func() {
		for _, pc := range pends {
			for i, l := range pc.lens {
				k := sufKey{pc.path[i], l}
				o := g.Part.Owner(k.v.Read())
				if o == me {
					continue
				}
				if _, dup := suf.at[k]; dup {
					met.GraphCoalesced++
					continue
				}
				suf.at[k] = want[o]
				want[o] += int(l)
				req[o] = binary.LittleEndian.AppendUint64(req[o], uint64(k.v))
				req[o] = binary.LittleEndian.AppendUint32(req[o], uint32(l))
				met.GraphFetches++
			}
		}
	})
	inbound := r.Alltoallv(req)
	resp := make([][]byte, p)
	var srvErr error
	r.Timed(rt.CatOverhead, func() {
		for src, buf := range inbound {
			out, err := answerSuffixes(g, store, buf)
			if err != nil {
				srvErr = fmt.Errorf("graph: suffix request from rank %d: %w", src, err)
				return
			}
			resp[src] = out
		}
	})
	suf.from = r.Alltoallv(resp)
	if srvErr != nil {
		return nil, srvErr
	}
	for o, buf := range suf.from {
		if len(buf) != want[o] {
			return nil, fmt.Errorf("graph: rank %d answered %d suffix bytes, want %d", o, len(buf), want[o])
		}
		if i := seq.InvalidBase(buf); i >= 0 {
			return nil, &BadBasesError{From: o, Code: buf[i], Offset: i}
		}
	}
	met.Supersteps++
	return suf, nil
}

// answerSuffixes serves one peer's suffix request from the local store.
func answerSuffixes(g *Graph, store seq.Store, req []byte) ([]byte, error) {
	if len(req)%12 != 0 {
		return nil, fmt.Errorf("%d bytes", len(req))
	}
	var out []byte
	for off := 0; off < len(req); off += 12 {
		v := binary.LittleEndian.Uint64(req[off:])
		take := binary.LittleEndian.Uint32(req[off+8:])
		if v >= 2*uint64(len(g.Lens)) || !store.Owns(Vertex(v).Read()) {
			return nil, fmt.Errorf("vertex %d is not resident here", v)
		}
		rd := store.Get(Vertex(v).Read()).Seq
		if uint64(take) > uint64(len(rd)) {
			return nil, fmt.Errorf("%d bases of the %d in %v", take, len(rd), Vertex(v))
		}
		out = appendOriented(out, rd, Vertex(v).Rev(), int(take))
	}
	return out, nil
}

// Contigs walks this rank's share of the reduced graph. Collective —
// every rank makes all three alltoallv calls even after a local error, so
// the collectives stay matched and the error surfaces after them. Contigs
// are assembled on the rank owning their start vertex (GatherContigs
// concatenates them on rank 0 in canonical order) and are a pure function
// of the global graph: rank count and placement never change them.
func Contigs(r rt.Runtime, g *Graph, store seq.Store, cfg ContigConfig) ([]Contig, error) {
	me := r.Rank()
	t := newLinkTable(g)
	send := make([][]byte, r.Size())
	r.Timed(rt.CatOverhead, func() {
		rows := t.encode(me)
		for dst := range send {
			send[dst] = rows
		}
	})
	recv := r.Alltoallv(send)
	r.Metrics().Supersteps++

	var pends []*pendContig
	var err error
	r.Timed(rt.CatOverhead, func() {
		if err = t.adopt(recv); err == nil {
			pends, err = (&walker{t: t, minReads: cfg.MinReads}).walkAll(me)
		}
	})
	suf, sufErr := fetchSuffixes(r, g, store, pends)
	if err == nil {
		err = sufErr
	}
	if err != nil {
		return nil, err
	}

	contigs := make([]Contig, 0, len(pends))
	total := 0
	r.Timed(rt.CatOverhead, func() {
		for _, pc := range pends {
			ct := suf.emit(g, store, me, pc)
			total += len(ct.Seq)
			contigs = append(contigs, ct)
		}
		sort.Slice(contigs, func(i, j int) bool { return contigs[i].Start < contigs[j].Start })
	})
	cfg.Model.charge(r, rt.CatOverhead, cfg.Model.prices().PerBase, total)
	return contigs, nil
}

// emit assembles the sequence of a finished walk: each vertex's
// contribution in path order — from the local store, or from the owner's
// suffix response.
func (s *suffixes) emit(g *Graph, store seq.Store, me int, pc *pendContig) Contig {
	n := 0
	for _, l := range pc.lens {
		n += int(l)
	}
	out := make(seq.Seq, 0, n)
	for i, l := range pc.lens {
		v := pc.path[i]
		if o := g.Part.Owner(v.Read()); o == me {
			out = appendOriented(out, store.Get(v.Read()).Seq, v.Rev(), int(l))
		} else {
			off := s.at[sufKey{v, l}]
			for _, b := range s.from[o][off : off+int(l)] {
				out = append(out, seq.Base(b))
			}
		}
	}
	return Contig{Start: pc.path[0], Reads: int32(len(pc.path)), Circular: pc.circular, Seq: out}
}

// contigWire encodes one contig: Start(8) Reads(4) Circular(1) SeqLen(4) + bases.
func encodeContigs(cs []Contig) []byte {
	var buf []byte
	for _, ct := range cs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ct.Start))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(ct.Reads))
		if ct.Circular {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ct.Seq)))
		for _, b := range ct.Seq {
			buf = append(buf, byte(b))
		}
	}
	return buf
}

// decodeContigs is the inverse of encodeContigs on a frame from rank from.
func decodeContigs(from int, buf []byte) ([]Contig, error) {
	var out []Contig
	off := 0
	for off < len(buf) {
		if off+17 > len(buf) {
			return nil, fmt.Errorf("graph: truncated contig header")
		}
		if buf[off+12] > 1 {
			return nil, fmt.Errorf("graph: contig circular flag %d", buf[off+12])
		}
		ct := Contig{
			Start:    Vertex(binary.LittleEndian.Uint64(buf[off:])),
			Reads:    int32(binary.LittleEndian.Uint32(buf[off+8:])),
			Circular: buf[off+12] == 1,
		}
		n := int(binary.LittleEndian.Uint32(buf[off+13:]))
		off += 17
		if off+n > len(buf) {
			return nil, fmt.Errorf("graph: truncated contig bases")
		}
		if i := seq.InvalidBase(buf[off : off+n]); i >= 0 {
			return nil, &BadBasesError{From: from, Code: buf[off+i], Offset: off + i}
		}
		ct.Seq = make(seq.Seq, n)
		for i := 0; i < n; i++ {
			ct.Seq[i] = seq.Base(buf[off+i])
		}
		off += n
		out = append(out, ct)
	}
	return out, nil
}

// GatherContigs collects every rank's contigs onto rank 0 in canonical
// (Start vertex) order; other ranks return nil. Start vertices are unique
// across ranks, so the gathered order — and any FASTA rendered from it —
// is independent of the rank count.
func GatherContigs(r rt.Runtime, local []Contig) ([]Contig, error) {
	send := make([][]byte, r.Size())
	send[0] = encodeContigs(local)
	recv := r.Alltoallv(send)
	if r.Rank() != 0 {
		return nil, nil
	}
	var all []Contig
	for src := 0; src < r.Size(); src++ {
		cs, err := decodeContigs(src, recv[src])
		if err != nil {
			return nil, fmt.Errorf("graph: gather from rank %d: %w", src, err)
		}
		all = append(all, cs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	return all, nil
}

// WriteContigFASTA renders gathered contigs with deterministic names:
// contig00001 etc. in canonical order, with read count, length and
// circularity in the description. 80-column wrapping.
func WriteContigFASTA(w io.Writer, cs []Contig) error {
	for i, ct := range cs {
		circ := ""
		if ct.Circular {
			circ = " circular"
		}
		if _, err := fmt.Fprintf(w, ">contig%05d reads=%d len=%d start=%s%s\n",
			i+1, ct.Reads, len(ct.Seq), ct.Start, circ); err != nil {
			return err
		}
		s := ct.Seq.String()
		for len(s) > 0 {
			n := 80
			if n > len(s) {
				n = len(s)
			}
			if _, err := fmt.Fprintf(w, "%s\n", s[:n]); err != nil {
				return err
			}
			s = s[n:]
		}
	}
	return nil
}
