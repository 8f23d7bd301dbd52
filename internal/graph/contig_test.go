package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gnbody/internal/dist"
	"gnbody/internal/genome"
	"gnbody/internal/par"
	"gnbody/internal/partition"
	"gnbody/internal/pipeline"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
)

// sizePartition splits reads of the given lengths over p ranks.
func sizePartition(t testing.TB, lens []int32, p int) *partition.Partition {
	t.Helper()
	lensInt := make([]int, len(lens))
	for i, l := range lens {
		lensInt[i] = int(l)
	}
	pt, err := partition.BySize(lensInt, p)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

// circularWorkload tiles a circular genome of n*step bases with n
// error-free reads of readLen bases at a fixed stride — the last ones wrap
// past the origin — every odd read reverse-complemented.
func circularWorkload(n, readLen, step int, seed int64) (seq.Seq, *seq.ReadSet, []int32) {
	g := genome.Generate(genome.Config{Length: n * step, Seed: seed})
	seqs := make([]seq.Seq, n)
	lens := make([]int32, n)
	for i := range seqs {
		s := make(seq.Seq, readLen)
		for j := range s {
			s[j] = g[(i*step+j)%len(g)]
		}
		if i%2 == 1 {
			s = s.ReverseComplement()
		}
		seqs[i], lens[i] = s, int32(readLen)
	}
	return g, seq.NewReadSet(seqs), lens
}

// TestContigsCircularGenome: the full five-stage chain over a circular
// genome's wrap-around reads gives exactly one contig, marked Circular,
// exactly one turn long — a rotation of the genome or of its reverse
// complement — and the same one for every rank count on par and on dist
// loopback. The cycle election (tryCycle) is the only rule that can emit
// it: no vertex of a perfect cycle starts a linear walk.
func TestContigsCircularGenome(t *testing.T) {
	const n, readLen, step = 20, 450, 150
	g, reads, lens := circularWorkload(n, readLen, step, 11)
	rc := g.ReverseComplement()
	turns := [2]seq.Seq{append(g.Clone(), g...), append(rc.Clone(), rc...)}

	var want []Contig
	for _, backend := range []string{"par", "dist"} {
		for _, p := range []int{1, 2, 3, 5} {
			name := fmt.Sprintf("%s/p%d", backend, p)
			pl, err := newAssemblyPlan(lens, p)
			if err != nil {
				t.Fatal(err)
			}
			var world pipeline.World
			if backend == "par" {
				world, err = par.NewWorld(par.Config{P: p})
			} else {
				var dw *dist.World
				if dw, err = dist.NewWorld(dist.Config{P: p}); err == nil {
					defer dw.Close()
				}
				world = dw
			}
			if err != nil {
				t.Fatal(err)
			}
			storeFor := func(r rt.Runtime) seq.Store {
				lo, hi := pl.Part.Range(r.Rank())
				st, serr := seq.NewSliceStore(lo, reads.Reads[lo:hi], lens)
				if serr != nil {
					panic(serr)
				}
				return st
			}
			runs, err := pl.RunOn(world, storeFor, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var got []Contig
			for _, run := range runs {
				got = append(got, run.Out.([]Contig)...)
			}
			if len(got) != 1 {
				t.Fatalf("%s: %d contigs, want 1 (starts %v)", name, len(got), startsOf(got))
			}
			ct := got[0]
			if !ct.Circular || int(ct.Reads) != n {
				t.Errorf("%s: contig circular=%v reads=%d, want circular over %d reads", name, ct.Circular, ct.Reads, n)
			}
			if len(ct.Seq) != len(g) {
				t.Fatalf("%s: circular contig has %d bases, one turn of the genome is %d", name, len(ct.Seq), len(g))
			}
			if !bytes.Contains(basesOf(turns[0]), basesOf(ct.Seq)) && !bytes.Contains(basesOf(turns[1]), basesOf(ct.Seq)) {
				t.Errorf("%s: contig is not a rotation of the genome or its reverse complement", name)
			}
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: contig differs from %s's", name, "par/p1")
			}
		}
	}
}

func basesOf(s seq.Seq) []byte {
	out := make([]byte, len(s))
	for i, b := range s {
		out[i] = byte(b)
	}
	return out
}

// chainGraph is rank me's partition of the reduced string graph of a tiled
// read set (tiledWorkload): every live read's forward vertex continues
// into the next live read's, appending the bases between their starts, and
// the twins run the other way.
func chainGraph(pt *partition.Partition, lens []int32, contained []bool, step int32, me int) *Graph {
	var edges []Edge
	add := func(e Edge) {
		if pt.Owner(e.From.Read()) == me {
			edges = append(edges, e)
		}
	}
	prev := -1
	for i := range lens {
		if contained[i] {
			continue
		}
		if prev >= 0 {
			a, b, l := seq.ReadID(prev), seq.ReadID(i), step*int32(i-prev)
			add(Edge{From: V(a, false), To: V(b, false), Len: l})
			add(Edge{From: V(b, true), To: V(a, true), Len: l})
		}
		prev = i
	}
	return newGraph(pt, me, lens, contained, edges)
}

// countingRuntime counts the calls on which a rank waits for its peers,
// and the RPCs it issues or offers to serve.
type countingRuntime struct {
	rt.Runtime
	blocking, rpcs int
}

func (c *countingRuntime) Barrier() { c.blocking++; c.Runtime.Barrier() }
func (c *countingRuntime) Alltoallv(send [][]byte) [][]byte {
	c.blocking++
	return c.Runtime.Alltoallv(send)
}
func (c *countingRuntime) Allreduce(v int64, op rt.Op) int64 {
	c.blocking++
	return c.Runtime.Allreduce(v, op)
}
func (c *countingRuntime) Drain(max int) { c.blocking++; c.Runtime.Drain(max) }
func (c *countingRuntime) SplitBarrier() func() {
	wait := c.Runtime.SplitBarrier()
	return func() { c.blocking++; wait() }
}
func (c *countingRuntime) Serve(h func([]byte) []byte) { c.rpcs++; c.Runtime.Serve(h) }
func (c *countingRuntime) AsyncCall(owner int, req []byte, cb func([]byte)) {
	c.rpcs++
	c.Runtime.AsyncCall(owner, req, cb)
}

// TestContigsConstantRounds: the number of blocking runtime calls Contigs
// makes does not depend on the chain length or the rank count — one table
// exchange and one suffix request/response pair — and the stage sends no
// RPC. Each run still has to reassemble the genome in one contig.
func TestContigsConstantRounds(t *testing.T) {
	const readLen, step = 120, 40
	rounds := -1
	for _, n := range []int{40, 800} {
		for _, p := range []int{2, 5} {
			g, reads, lens := tiledWorkload(t, n, readLen, step, 9)
			pt := sizePartition(t, lens, p)
			world, err := par.NewWorld(par.Config{P: p})
			if err != nil {
				t.Fatal(err)
			}
			counts := make([]*countingRuntime, p)
			contigs := make([][]Contig, p)
			errs := make([]error, p)
			mustRun(t, world.Run)(func(r rt.Runtime) {
				rk := r.Rank()
				counts[rk] = &countingRuntime{Runtime: r}
				lo, hi := pt.Range(rk)
				contigs[rk], errs[rk] = Contigs(counts[rk], chainGraph(pt, lens, make([]bool, n), step, rk),
					seq.Scope(reads, lo, hi, lens), ContigConfig{})
			})
			var all []Contig
			for rk := 0; rk < p; rk++ {
				if errs[rk] != nil {
					t.Fatalf("n=%d p=%d rank %d: %v", n, p, rk, errs[rk])
				}
				all = append(all, contigs[rk]...)
				c := counts[rk]
				if rounds < 0 {
					rounds = c.blocking
				}
				if c.blocking != rounds || c.blocking > 4 || c.rpcs != 0 {
					t.Errorf("n=%d p=%d rank %d: %d blocking calls (first run %d, limit 4), %d RPC calls (want 0)",
						n, p, rk, c.blocking, rounds, c.rpcs)
				}
			}
			if len(all) != 1 || int(all[0].Reads) != n || !reflect.DeepEqual(all[0].Seq, g) {
				t.Errorf("n=%d p=%d: %d contigs (starts %v), want the genome in one", n, p, len(all), startsOf(all))
			}
		}
	}
}

// TestContigsRejectCorruptPeer: a peer's malformed table or suffix frame
// becomes an error on the rank that saw it — naming the source rank where
// a decoder caught it — after the stage's collectives have all run; a
// well-formed table no graph produces ends its walk at the step limit. No
// rank panics or hangs.
func TestContigsRejectCorruptPeer(t *testing.T) {
	const n, p, step = 12, 3, 40
	_, reads, lens := tiledWorkload(t, n, 120, step, 4)
	pt := sizePartition(t, lens, p)
	lo1, _ := pt.Range(1)
	first := func(succ uint64, take uint32) []byte { // a row 0 claiming one successor
		row := []byte{degOne}
		return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint64(row, succ), take)
	}
	for _, tc := range []struct {
		name, want string
		call       int // which of rank 1's Alltoallv calls lies to rank 0
		mutate     func(sent []byte) []byte
	}{
		{"table length", "rank 1", 0, func(sent []byte) []byte { return sent[:len(sent)-1] }},
		{"degree class", "rank 1", 0, func(sent []byte) []byte { return append([]byte{7}, sent[1:]...) }},
		{"successor out of range", "rank 1", 0, func(sent []byte) []byte {
			return append(first(2*n, step), sent[linkRow:]...)
		}},
		{"suffix longer than its read", "rank 1", 0, func(sent []byte) []byte {
			return append(first(uint64(V(0, false)), 121), sent[linkRow:]...)
		}},
		{"self loop", "exceeded", 0, func(sent []byte) []byte {
			return append(first(uint64(V(seq.ReadID(lo1), false)), step), sent[linkRow:]...)
		}},
		{"suffix request length", "rank 1", 1, func([]byte) []byte { return []byte{1, 2, 3} }},
		{"suffix request past the read", "rank 1", 1, func([]byte) []byte {
			return first(uint64(V(0, false)), 1<<20)[1:]
		}},
		{"suffix request for a foreign read", "rank 1", 1, func([]byte) []byte {
			return first(uint64(V(n-1, true)), step)[1:]
		}},
		{"suffix response length", "rank 1", 2, func(sent []byte) []byte { return append(sent, 0) }},
		{"suffix response base code", "rank 1 sent base code 9", 2, func(sent []byte) []byte {
			return append(slices.Clone(sent[:len(sent)-1]), 9)
		}},
	} {
		world, err := par.NewWorld(par.Config{P: p})
		if err != nil {
			t.Fatal(err)
		}
		errs := make([]error, p)
		mustRun(t, world.Run)(func(r rt.Runtime) {
			rk := r.Rank()
			if rk == 1 {
				r = &corruptingRuntime{Runtime: r, call: tc.call, mutate: tc.mutate}
			}
			lo, hi := pt.Range(rk)
			_, errs[rk] = Contigs(r, chainGraph(pt, lens, make([]bool, n), step, rk),
				seq.Scope(reads, lo, hi, lens), ContigConfig{})
		})
		if errs[0] == nil || !strings.Contains(errs[0].Error(), tc.want) {
			t.Errorf("%s: rank 0 returned %v, want an error containing %q", tc.name, errs[0], tc.want)
		}
		if be := (*BadBasesError)(nil); strings.Contains(tc.want, "base code") && (!errors.As(errs[0], &be) || be.From != 1) {
			t.Errorf("%s: rank 0 returned %v, want a BadBasesError from rank 1", tc.name, errs[0])
		}
		if errs[2] != nil {
			t.Errorf("%s: rank 2, which saw no bad frame, returned %v", tc.name, errs[2])
		}
	}
}

// TestGatherContigsRejectsBadBases: a gathered contig frame whose bases
// hold a code that is no base ends the gather on rank 0 in a
// BadBasesError naming the sender, instead of a '?' in the FASTA.
func TestGatherContigsRejectsBadBases(t *testing.T) {
	world, err := par.NewWorld(par.Config{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	var got error
	mustRun(t, world.Run)(func(r rt.Runtime) {
		local := []Contig{{Start: V(seq.ReadID(r.Rank()), false), Reads: 1, Seq: seq.MustFromString("ACGTN")}}
		if r.Rank() == 1 {
			r = &corruptingRuntime{Runtime: r, call: 0, mutate: func(sent []byte) []byte {
				return append(slices.Clone(sent[:len(sent)-1]), seq.NumBases)
			}}
		}
		if _, err := GatherContigs(r, local); r.Rank() == 0 {
			got = err
		}
	})
	var be *BadBasesError
	if !errors.As(got, &be) || be.From != 1 || be.Code != seq.NumBases {
		t.Fatalf("rank 0 gathered with error %v, want a BadBasesError from rank 1", got)
	}
}

// corruptingRuntime rewrites what one rank sends rank 0 in its call-th
// Alltoallv, and in every RPC request.
type corruptingRuntime struct {
	rt.Runtime
	seen, call int
	mutate     func(sent []byte) []byte
}

func (c *corruptingRuntime) Alltoallv(send [][]byte) [][]byte {
	if c.seen == c.call {
		send = append([][]byte(nil), send...)
		send[0] = c.mutate(send[0])
	}
	c.seen++
	return c.Runtime.Alltoallv(send)
}

func (c *corruptingRuntime) AsyncCall(owner int, req []byte, cb func([]byte)) {
	if owner == 0 {
		req = c.mutate(req)
	}
	c.Runtime.AsyncCall(owner, req, cb)
}

// maxFuzzLinks caps FuzzContigLinks' input: rank 1's whole link table (104
// bytes) twice over, or about twenty suffix requests. A longer input only
// repeats rows or requests, and the engine minimizes a new input in time
// quadratic in its length; an uncapped target can sit at 0 execs a second.
// Every seed is under it.
const maxFuzzLinks = 256

// FuzzContigLinks feeds arbitrary bytes to the two decoders a peer's frame
// reaches: as rank 1's link-table payload (raw, then cut or padded to the
// expected size so the row checks and the walks see it) and as a suffix
// request. Neither may panic or index out of range; a table that is
// adopted must walk to completion — contigs or an error — with every path
// vertex live and every suffix within its read.
func FuzzContigLinks(f *testing.F) {
	const n, p, step = 10, 2, 40
	_, reads, lens := tiledWorkload(f, n, 120, step, 3)
	pt := sizePartition(f, lens, p)
	contained := make([]bool, n)
	contained[3], contained[n-2] = true, true
	g0 := chainGraph(pt, lens, contained, step, 0)
	own := newLinkTable(g0).encode(0)
	peer := newLinkTable(chainGraph(pt, lens, contained, step, 1)).encode(1)
	if err := newLinkTable(g0).adopt([][]byte{own, peer}); err != nil {
		f.Fatalf("the honest table is rejected: %v", err)
	}
	f.Add(peer)
	f.Add(peer[:len(peer)-1])
	loop := bytes.Clone(peer) // the peer's first vertex points at itself
	loop[0] = degOne
	lo1, _ := pt.Range(1)
	binary.LittleEndian.PutUint64(loop[1:], uint64(V(seq.ReadID(lo1), false)))
	binary.LittleEndian.PutUint32(loop[9:], 7)
	f.Add(loop)
	f.Add(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint64(nil, uint64(V(0, true))), 50))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxFuzzLinks {
			return
		}
		sized := make([]byte, len(peer))
		copy(sized, data)
		for _, payload := range [][]byte{data, sized} {
			tab := newLinkTable(g0)
			if tab.adopt([][]byte{own, payload}) != nil {
				continue
			}
			pends, err := (&walker{t: tab}).walkAll(0)
			if err != nil {
				continue
			}
			for _, pc := range pends {
				for i, v := range pc.path {
					if v >= 2*n || contained[v.Read()] || pc.lens[i] < 0 || pc.lens[i] > lens[v.Read()] {
						t.Fatalf("walk from %v reaches %v taking %d bases", pc.path[0], v, pc.lens[i])
					}
				}
			}
		}
		lo, hi := pt.Range(0)
		if out, err := answerSuffixes(g0, seq.Scope(reads, lo, hi, lens), data); err == nil && len(out) > len(data)/12*120 {
			t.Fatalf("suffix response of %d bytes to %d requests", len(out), len(data)/12)
		}
	})
}
