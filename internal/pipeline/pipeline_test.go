package pipeline

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"gnbody/internal/core"
	"gnbody/internal/genome"
	"gnbody/internal/kmer"
	"gnbody/internal/overlap"
	"gnbody/internal/par"
	"gnbody/internal/partition"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
	"gnbody/internal/sim"
	"gnbody/internal/workload"
)

// scopeRank gives a rank an enforcing owner-only view of the shared read
// set: stage 1 must scan only its own partition, and any stray Get panics.
func scopeRank(r rt.Runtime, pt *partition.Partition, reads *seq.ReadSet, lens []int32) seq.Store {
	lo, hi := pt.Range(r.Rank())
	return seq.Scope(reads, lo, hi, lens)
}

// runDistributed executes stages 1-2 on the real runtime and gathers the
// per-rank outputs.
func runDistributed(t testing.TB, reads *seq.ReadSet, p, k, lo, hi int) ([]*Output, *partition.Partition) {
	t.Helper()
	lens := workload.LensOf(reads)
	pt := sizePartition(t, lens, p)
	world, err := par.NewWorld(par.Config{P: p})
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]*Output, p)
	errs := make([]error, p)
	world.Run(func(r rt.Runtime) {
		outs[r.Rank()], errs[r.Rank()] = (&Plan{Part: pt, Lens: lens, K: k, Lo: lo, Hi: hi}).Run(r, scopeRank(r, pt, reads, lens))
	})
	for rk, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rk, err)
		}
	}
	return outs, pt
}

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

func pipelineReads(t *testing.T, seed int64) *seq.ReadSet {
	t.Helper()
	reads, _, _, err := workload.Pipeline(workload.EColi30x, 600, seed)
	if err != nil {
		t.Fatal(err)
	}
	return reads
}

// mixedReads is a small read set with everything the scan and the run
// scan must get right: both strands, substitution/indel/N errors, runs of N
// that restart the encoder, a read shorter than any k, a genome repeat
// (k-mers with several instances in one read, the whole genome being read
// 0), and a last read of unrelated bases long enough that BySize leaves the
// last of eight ranks an empty range.
func mixedReads(t testing.TB, seed int64) *seq.ReadSet {
	t.Helper()
	g := genome.Generate(genome.Config{Length: 5000, RepeatLen: 120, RepeatCopies: 3, Seed: seed})
	smp, err := genome.NewSampler(g, genome.ReadConfig{
		Coverage: 9, MeanLen: 700, SigmaLog: 0.3, BothStrands: true, Seed: seed + 1,
		Errors: genome.ErrorModel{Substitution: 0.02, Insertion: 0.015, Deletion: 0.01, NRate: 0.002},
	})
	if err != nil {
		t.Fatal(err)
	}
	sampled, _ := smp.Sample()
	rng := rand.New(rand.NewSource(seed + 2))
	seqs := []seq.Seq{append(seq.Seq(nil), g...), g[100:110]}
	for i := range sampled.Reads {
		s := sampled.Reads[i].Seq
		if i%4 == 0 && len(s) > 100 { // an N run somewhere inside
			at := rng.Intn(len(s) - 40)
			for j := at; j < at+2+rng.Intn(30); j++ {
				s[j] = seq.N
			}
		}
		seqs = append(seqs, s)
	}
	junk := make(seq.Seq, 20000)
	for i := range junk {
		junk[i] = seq.Base(rng.Intn(4))
	}
	return seq.NewReadSet(append(seqs, junk))
}

// serialTasks is the oracle: overlap.FromReadSet, sorted.
func serialTasks(t testing.TB, reads *seq.ReadSet, k, lo, hi int) []overlap.Task {
	t.Helper()
	want, _, _, err := overlap.FromReadSet(reads, overlap.Config{K: k, Lo: lo, Hi: hi})
	if err != nil {
		t.Fatal(err)
	}
	overlap.SortTasks(want)
	return want
}

// unionTasks gathers every rank's tasks, checking the owner invariant.
func unionTasks(t testing.TB, outs []*Output, pt *partition.Partition) []overlap.Task {
	t.Helper()
	var got []overlap.Task
	for rk, out := range outs {
		for _, task := range out.Tasks {
			if pt.Owner(task.A) != rk && pt.Owner(task.B) != rk {
				t.Fatalf("P=%d: rank %d violates the owner invariant with %+v", pt.P, rk, task)
			}
		}
		got = append(got, out.Tasks...)
	}
	overlap.SortTasks(got)
	return got
}

func sameTasks(t testing.TB, label string, got, want []overlap.Task) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tasks, serial %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: task %d = %+v, serial %+v", label, i, got[i], want[i])
		}
	}
}

// The central pipeline invariant: the union of all ranks' tasks equals the
// serial reference, seed for seed, for any rank count and any k (even k
// has palindromic k-mers). The window's upper edge is low enough to drop
// the repeat's k-mers, so both of its tests are exercised.
func TestDistributedMatchesSerial(t *testing.T) {
	const lo, hi = 2, 12
	for seed := int64(1); seed <= 3; seed++ {
		reads := mixedReads(t, seed)
		for _, k := range []int{15, 16, 17} {
			want := serialTasks(t, reads, k, lo, hi)
			var rc, dropped int
			for _, task := range want {
				if task.Seed.RC {
					rc++
				}
			}
			if h, err := kmer.CountSet(reads, k); err != nil {
				t.Fatal(err)
			} else {
				for _, n := range h {
					if n > hi {
						dropped++
					}
				}
			}
			if rc == 0 || rc == len(want) || dropped == 0 {
				t.Fatalf("seed %d k=%d: %d tasks, %d opposite-strand, %d k-mers over the window: the fixture lost a case",
					seed, k, len(want), rc, dropped)
			}
			for _, p := range []int{1, 2, 3, 5, 8} {
				outs, pt := runDistributed(t, reads, p, k, lo, hi)
				if p == 8 {
					if l, h := pt.Range(7); l != h {
						t.Fatalf("rank 7 of 8 owns [%d,%d): the fixture lost its empty range", l, h)
					}
				}
				sameTasks(t, fmt.Sprintf("seed %d P=%d k=%d", seed, p, k), unionTasks(t, outs, pt), want)
			}
		}
	}
}

// The frequency window counts k-mer instances, as kmer.Index does — not
// distinct reads. X sits twice in read 0 and once in reads 1 and 2: four
// instances on three reads, outside the window [2,3], so the three pairs
// must be seeded by X's neighbour Y (three instances), one base on.
func TestWindowCountsInstances(t *testing.T) {
	const k, lo, hi = 15, 2, 3
	rng := rand.New(rand.NewSource(7))
	random := func(n int) seq.Seq {
		s := make(seq.Seq, n)
		for i := range s {
			s[i] = seq.Base(rng.Intn(4))
		}
		return s
	}
	join := func(parts ...seq.Seq) seq.Seq {
		var s seq.Seq
		for _, part := range parts {
			s = append(s, part...)
		}
		return s
	}
	var shared seq.Seq // X = shared[:k], Y = shared[1:]; X must be the smaller seed to matter
	code := func(i int) kmer.Code { return kmer.Canonical(kmer.Encode(shared, i, k), k) }
	for shared = random(k + 1); code(0) >= code(1); shared = random(k + 1) {
	}
	// Each copy sits between bases no other copy has, so that X and Y are
	// all the reads share: X at 40, 40 and 50 (and again in read 0).
	b := func(x seq.Base) seq.Seq { return seq.Seq{x} }
	reads := seq.NewReadSet([]seq.Seq{
		join(random(39), b(0), shared, b(0), random(30), b(3), shared[:k], b(3-shared[k]), random(20)),
		join(random(39), b(1), shared, b(1), random(25)),
		join(random(49), b(2), shared, b(2), random(35)),
	})
	h, err := kmer.CountSet(reads, k)
	if err != nil {
		t.Fatal(err)
	}
	if h[code(0)] != 4 || h[code(1)] != 3 {
		t.Fatalf("fixture: X has %d instances (want 4), Y %d (want 3)", h[code(0)], h[code(1)])
	}
	want := serialTasks(t, reads, k, lo, hi)
	if len(want) != 3 || want[0].Seed.PosA != 41 || want[1].Seed.PosA != 41 || want[2].Seed.PosA != 41 {
		t.Fatalf("oracle: %+v, want three pairs seeded by Y at 41", want)
	}
	for _, p := range []int{1, 2, 3} {
		outs, pt := runDistributed(t, reads, p, k, lo, hi)
		sameTasks(t, "tandem fixture", unionTasks(t, outs, pt), want)
	}
}

func TestDistributedBalance(t *testing.T) {
	reads := pipelineReads(t, 2)
	const p = 6
	outs, _ := runDistributed(t, reads, p, 15, 2, 60)
	total := 0
	max := 0
	for _, out := range outs {
		n := len(out.Tasks)
		total += n
		if n > max {
			max = n
		}
	}
	if total == 0 {
		t.Fatal("no tasks")
	}
	mean := float64(total) / p
	if imb := float64(max) / mean; imb > 1.6 {
		t.Errorf("task-count imbalance %.2f after refinement (max %d, mean %.0f)", imb, max, mean)
	}
}

func TestDistributedStats(t *testing.T) {
	reads := pipelineReads(t, 3)
	outs, _ := runDistributed(t, reads, 4, 15, 2, 60)
	var extracted, owned, retained, pairs, deduped int64
	for _, out := range outs {
		extracted += out.KmersExtracted
		owned += out.KmersOwned
		retained += out.KmersRetained
		pairs += out.PairsEmitted
		deduped += out.PairsOwned
	}
	if extracted == 0 || owned == 0 || retained == 0 {
		t.Fatalf("stats empty: %d extracted, %d owned, %d retained", extracted, owned, retained)
	}
	if retained > owned {
		t.Errorf("retained %d > owned %d", retained, owned)
	}
	if deduped > pairs {
		t.Errorf("deduped %d > emitted %d", deduped, pairs)
	}
	// Owned k-mers across ranks = distinct canonical k-mers (serial count).
	h, err := kmer.CountSet(reads, 15)
	if err != nil {
		t.Fatal(err)
	}
	if owned != int64(len(h)) {
		t.Errorf("owned kmers %d != serial distinct %d", owned, len(h))
	}
}

func TestDistributedValidation(t *testing.T) {
	reads := pipelineReads(t, 4)
	lens := workload.LensOf(reads)
	pt := sizePartition(t, lens, 2)
	world, _ := par.NewWorld(par.Config{P: 2})
	errs := make([]error, 2)
	world.Run(func(r rt.Runtime) {
		if r.Rank() != 0 {
			return
		}
		_, errs[0] = (&Plan{Part: pt, Lens: lens, K: 0}).Run(r, scopeRank(r, pt, reads, lens))
	})
	if errs[0] == nil {
		t.Error("k=0 accepted")
	}
}

// The same SPMD program runs under the simulator (with real reads — the
// pipeline moves genuine k-mers either way) and produces the same tasks.
func TestDistributedUnderSimulator(t *testing.T) {
	reads := pipelineReads(t, 5)
	const k, lo, hi = 15, 2, 60
	outsReal, _ := runDistributed(t, reads, 4, k, lo, hi)
	var want []overlap.Task
	for _, out := range outsReal {
		want = append(want, out.Tasks...)
	}
	overlap.SortTasks(want)

	lens := workload.LensOf(reads)
	pt := sizePartition(t, lens, 4)
	eng, err := sim.NewEngine(sim.Config{Machine: sim.CoriKNL(), Nodes: 2, RanksPerNode: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]*Output, 4)
	errs := make([]error, 4)
	if err := eng.Run(func(r rt.Runtime) {
		outs[r.Rank()], errs[r.Rank()] = (&Plan{Part: pt, Lens: lens, K: k, Lo: lo, Hi: hi}).Run(r, scopeRank(r, pt, reads, lens))
	}); err != nil {
		t.Fatal(err)
	}
	var got []overlap.Task
	for rk, out := range outs {
		if errs[rk] != nil {
			t.Fatalf("rank %d: %v", rk, errs[rk])
		}
		got = append(got, out.Tasks...)
	}
	overlap.SortTasks(got)
	if len(got) != len(want) {
		t.Fatalf("simulator pipeline: %d tasks, real %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("task %d differs across back-ends", i)
		}
	}
	if eng.MaxClock() <= 0 {
		t.Error("no simulated time elapsed")
	}
}

// occFrame encodes occurrence records the way the scan does.
func occFrame(l *layout, recs ...occRec) []byte {
	var buf []byte
	for _, o := range recs {
		lo, hi := l.occFields().put(o.code, o.read, o.posRC)
		buf = appendRec(buf, l.occ, lo, hi, 0)
	}
	return buf
}

// censusFrame encodes the census record of each occurrence the way the scan
// does.
func censusFrame(l *layout, recs ...occRec) []byte {
	var buf []byte
	for _, o := range recs {
		buf = appendRec(buf, l.census, splitmix(o.code)>>(64-l.slot), 0, 0)
	}
	return buf
}

// censusRound runs discover's census and record rounds for the owner of the
// occurrences each sender scanned, in its scan order, as honest peers would:
// it returns the census frames, the keep bitmaps the owner answers them
// with, the singletons they leave out, and each sender's kept records.
func censusRound(t testing.TB, l *layout, senders ...[]occRec) (census, keep, occs [][]byte, singles int64) {
	t.Helper()
	census = make([][]byte, len(senders))
	for from, recs := range senders {
		census[from] = censusFrame(l, recs...)
	}
	keep, singles, err := keepBitmaps(census, l)
	if err != nil {
		t.Fatal(err)
	}
	occs = make([][]byte, len(senders))
	for from, recs := range senders {
		for i, o := range recs {
			if keep[from][i>>3]>>(i&7)&1 == 1 {
				occs[from] = append(occs[from], occFrame(l, o)...)
			}
		}
	}
	return census, keep, occs, singles
}

// ownedCode draws 2k-bit codes from rng until one's hash owner is rank me of
// p.
func ownedCode(rng *rand.Rand, k, me, p int) uint64 {
	for {
		if c := rng.Uint64() >> (64 - 2*k); hashOwner(c, p) == me {
			return c
		}
	}
}

// padBit returns a copy of frame with the top bit of its last byte set: a
// padding bit of its last record, where the layout leaves one.
func padBit(frame []byte) []byte {
	bad := append([]byte(nil), frame...)
	bad[len(bad)-1] |= 0x80
	return bad
}

// The run scan takes a run's (read, pos) order from a stable sort, which
// rests on two things, both pinned here. Ranks own contiguous ascending
// read ranges, empty ones included, so frames decoded in rank order are in
// (read, pos) order; and keptOccs refuses frames that are not — swapped
// sources, or records out of order within one — naming the sender, so a
// partition or transport that broke the contract could not silently move
// a seed. Each case's census is the one its records answer, so only the
// check it names can refuse it.
func TestOccurrenceOrderContract(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		lens := make([]int32, 1+rng.Intn(40))
		for i := range lens {
			lens[i] = int32(1 + rng.Intn(5000))
		}
		p := 1 + rng.Intn(12)
		pt := sizePartition(t, lens, p)
		next := 0
		for rk := 0; rk < p; rk++ {
			lo, hi := pt.Range(rk)
			if lo != next || hi < lo {
				t.Fatalf("lens %v P=%d: rank %d owns [%d,%d) after %d", lens, p, rk, lo, hi, next)
			}
			next = hi
		}
		if next != len(lens) {
			t.Fatalf("lens %v P=%d: ranges end at %d", lens, p, next)
		}
	}

	const k, p = 5, 3
	lens := []int32{30, 30, 30, 30, 30}
	lay := newLayout(k, len(lens), 30, 8) // 10 + 3 + 6 bits: three bytes, five of them padding
	// Two codes rank 0 owns, x < y.
	var x, y uint64
	for x = 0; hashOwner(x, p) != 0; x++ {
	}
	for y = x + 1; hashOwner(y, p) != 0; y++ {
	}
	rank0 := []occRec{{x, 0, 3 << 1}, {y, 0, 8<<1 | 1}, {x, 1, 0}}
	rank1 := []occRec{{y, 2, 4 << 1}, {x, 3, 25<<1 | 1}}
	decode := func(mutate func(occs [][]byte), senders ...[]occRec) ([]occRec, error) {
		senders = append(senders, make([][]occRec, p-len(senders))...) // one frame a rank
		census, keep, occs, _ := censusRound(t, &lay, senders...)
		if mutate != nil {
			mutate(occs)
		}
		return keptOccs(occs, census, keep, lens, &lay, 0)
	}
	if lay.occ != 3 || lay.census != 1 {
		t.Fatalf("fixture: %d-byte occurrences, %d-byte census records; want 3 and 1", lay.occ, lay.census)
	}
	recs, err := decode(nil, rank0, nil, rank1)
	if err != nil || len(recs) != 5 {
		t.Fatalf("honest frames: %d records kept, %v", len(recs), err)
	}
	sorted := sortByCode(recs, make([]occRec, len(recs)), 2*k)
	want := []occRec{{x, 0, 3 << 1}, {x, 1, 0}, {x, 3, 25<<1 | 1}, {y, 0, 8<<1 | 1}, {y, 2, 4 << 1}}
	for i, o := range sorted {
		if o != want[i] {
			t.Fatalf("sorted record %d = %+v, want %+v", i, o, want[i])
		}
	}
	for _, tc := range []struct {
		name    string
		senders [][]occRec
		mutate  func(occs [][]byte)
		from    int
	}{
		{"sources swapped", [][]occRec{rank1, rank0}, nil, 1},
		{"records swapped", [][]occRec{{{x, 1, 0}, {x, 0, 3 << 1}}}, nil, 0},
		{"a position twice", [][]occRec{{{x, 0, 3 << 1}, {x, 0, 3<<1 | 1}}}, nil, 0},
		{"ragged", [][]occRec{rank0, rank1}, func(occs [][]byte) { occs[1] = occs[1][:len(occs[1])-1] }, 1},
		{"read out of range", [][]occRec{{{x, 0, 0}, {x, 5, 0}}}, nil, 0},
		{"window past the read", [][]occRec{{{x, 0, 1 << 1}, {x, 0, 26 << 1}}}, nil, 0},
		// A code wider than 2k bits would run into the read field; what a
		// packed record can carry past its fields is a padding bit.
		{"a padding bit", [][]occRec{rank0, rank1}, func(occs [][]byte) { occs[1] = padBit(occs[1]) }, 1},
	} {
		_, err := decode(tc.mutate, tc.senders...)
		var we *WireError
		if !errors.As(err, &we) || we.From != tc.from || we.Record != "occurrence" {
			t.Errorf("%s: got %v, want an occurrence WireError from rank %d", tc.name, err, tc.from)
		}
	}
}

// The census changes nothing the owner sends or counts: over random honest
// rounds, with the count table shrunk until every code shares one slot, at
// a few slots and at the plan's size, the kept records sorted and
// run-scanned give the same candidate frames, KmersOwned, KmersRetained
// and PairsEmitted as every record sorted and run-scanned. No candidate is
// seeded by a k-mer seen once, whatever Lo is.
func TestRepeatedOccsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var pairs, dropped int64
	defer func() {
		if pairs == 0 || dropped == 0 {
			t.Errorf("fixture lost a case: %d candidates, %d singletons dropped over all trials", pairs, dropped)
		}
	}()
	for trial := 0; trial < 300; trial++ {
		k := 5 + rng.Intn(13)
		lens := make([]int32, 1+rng.Intn(12))
		for i := range lens {
			lens[i] = int32(rng.Intn(80))
		}
		pl := &Plan{Lens: lens, K: k, Lo: 1 + trial%3, Hi: 2 + rng.Intn(10)}
		p := 1 + rng.Intn(5)
		me := rng.Intn(p)
		lay := pl.layout(p)

		// Windows in (read, pos) order, split into p consecutive senders; a
		// code is fresh (most likely a singleton) or from a small pool, and
		// always one rank me owns.
		pool := make([]uint64, 1+rng.Intn(40))
		for i := range pool {
			pool[i] = ownedCode(rng, k, me, p)
		}
		var all []occRec
		for read, l := range lens {
			for pos := 0; pos+k <= int(l); pos++ {
				if rng.Intn(3) == 0 {
					continue
				}
				code := ownedCode(rng, k, me, p)
				if rng.Intn(4) == 0 {
					code = pool[rng.Intn(len(pool))]
				}
				all = append(all, occRec{code, uint32(read), uint32(pos)<<1 | uint32(rng.Intn(2))})
			}
		}
		senders := make([][]occRec, p)
		for i, o := range all {
			senders[i*p/len(all)] = append(senders[i*p/len(all)], o)
		}
		freq := map[uint64]int{}
		for _, o := range all {
			freq[o.code]++
		}

		want := &Output{}
		wantSend := make([][]byte, p)
		ref := append([]occRec(nil), all...)
		pl.scanRuns(sortByCode(ref, make([]occRec, len(ref)), 2*k), &lay, wantSend, want)
		for _, slot := range []uint{0, 2, lay.slot} {
			label := fmt.Sprintf("trial %d k=%d Lo=%d Hi=%d, T=%d", trial, k, pl.Lo, pl.Hi, slot)
			l := lay
			l.slot = slot
			census, keep, occs, singles := censusRound(t, &l, senders...)
			kept, err := keptOccs(occs, census, keep, lens, &l, me)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got := &Output{KmersOwned: singles}
			send := make([][]byte, p)
			pl.scanRuns(sortByCode(kept, make([]occRec, len(kept)), 2*k), &lay, send, got)
			if got.KmersOwned != want.KmersOwned || got.KmersRetained != want.KmersRetained || got.PairsEmitted != want.PairsEmitted {
				t.Fatalf("%s: kept %d of %d records; stats %+v, every record %+v", label, len(kept), len(all), *got, *want)
			}
			pairs, dropped = pairs+got.PairsEmitted, dropped+singles
			for dst := range send {
				if string(send[dst]) != string(wantSend[dst]) {
					t.Fatalf("%s: candidates for rank %d differ", label, dst)
				}
				cands, err := lay.decodeCands(send[dst:dst+1], lens, 0, 1)
				if err != nil {
					t.Fatalf("%s: candidates for rank %d: %v", label, dst, err)
				}
				for _, c := range cands {
					if freq[c.code] < 2 {
						t.Fatalf("%s: code %d, seen %d times, seeded a candidate", label, c.code, freq[c.code])
					}
				}
			}
		}
	}
}

// lyingRuntime rewrites what this rank sends rank 0 in its call-th
// Alltoallv.
type lyingRuntime struct {
	rt.Runtime
	seen, call int
	mutate     func(sent []byte) []byte
}

func (l *lyingRuntime) Alltoallv(send [][]byte) [][]byte {
	if l.seen == l.call {
		send = append([][]byte(nil), send...)
		send[0] = l.mutate(send[0])
	}
	l.seen++
	return l.Runtime.Alltoallv(send)
}

// A malformed frame in any of discover's rounds — ragged, holding a record
// no scan produces, addressed to another rank, or not answering the census
// it belongs to — ends the stage with a *StageError on every rank; the one
// that decoded it carries the *WireError naming the sender, no other rank
// blames anyone, RunOn's folded error names the sender too, and nobody
// hangs in a later round. A bad keep bitmap is refused back to its sender,
// which then carries a *WireError naming itself; a refusal of a good one
// fails the stage too, blaming the bitmap's sender, since no rank can tell
// it from one that answers a bitmap spoilt on the way. The rounds are, by
// Alltoallv call: 0 census, 1 keep bitmaps, 2 kept occurrences, 3
// candidates, 4 tasks, 5 costs, 6 moved tasks.
func TestDiscoverRejectsCorruptPeer(t *testing.T) {
	const p, k = 3, 15
	reads := mixedReads(t, 1)
	// One more read, shorter than k: a read index then has a value past the
	// last read to forge.
	reads.Reads = append(reads.Reads, seq.Read{ID: seq.ReadID(reads.Len()), Seq: seq.Seq{0, 1, 2}})
	lens := workload.LensOf(reads)
	pt := sizePartition(t, lens, p)
	lay := (&Plan{Lens: lens, K: k}).layout(p)
	if 1<<lay.read == len(lens) || lay.occ*8 == int(lay.code()+lay.read+lay.pos) || lay.cand*8 == int(lay.code()+lay.taskBits()) ||
		lay.census*8 == int(lay.slot) {
		t.Fatalf("fixture: %d reads in %d bits, %d-byte occurrences, %d-byte candidates, %d-byte census records: no bad read index or padding bit to set",
			len(lens), lay.read, lay.occ, lay.cand, lay.census)
	}
	// Rank 1's keep bitmap for rank 0 answers this many census records.
	census0 := 0
	lo0, hi0 := pt.Range(0)
	for i := lo0; i < hi0; i++ {
		if err := kmer.Scan(&reads.Reads[i], k, func(_ int, c kmer.Code, _ bool) {
			if hashOwner(uint64(c), p) == 1 {
				census0++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if census0%8 == 0 {
		t.Fatalf("fixture: rank 0 sends rank 1 %d census records, a bitmap with no padding bit", census0)
	}
	// Two reads rank 2 owns, each holding a k-mer window.
	var far []seq.ReadID
	lo2, hi2 := pt.Range(2)
	for i := lo2; i < hi2 && len(far) < 2; i++ {
		if int(lens[i]) >= k {
			far = append(far, seq.ReadID(i))
		}
	}
	if len(far) < 2 {
		t.Fatalf("fixture: rank 2 owns %d reads of k bases or more, want 2", len(far))
	}
	chop := func(sent []byte) []byte { return sent[:len(sent)-1] }
	for _, tc := range []struct {
		name, record string
		call         int
		mutate       func([]byte) []byte
	}{
		{"ragged census", "census", 0, chop},
		{"census padding", "census", 0, padBit},
		{"bitmap padding", "bitmap", 1, func(sent []byte) []byte {
			bad := append([]byte(nil), sent...)
			bad[len(bad)-1] |= 1 << (census0 % 8)
			return bad
		}},
		{"bitmap one byte long", "bitmap", 1, func(sent []byte) []byte { return append(sent, 0xff) }},
		{"bitmap one byte short", "bitmap", 1, chop},
		{"ragged occurrences", "occurrence", 2, chop},
		{"a refusal of a good bitmap", "bitmap", 2, func([]byte) []byte { return lay.refusal() }},
		{"occurrences out of order", "occurrence", 2, func(sent []byte) []byte {
			return append(append(append([]byte(nil), sent[lay.occ:2*lay.occ]...), sent[:lay.occ]...), sent[2*lay.occ:]...)
		}},
		{"occurrence padding", "occurrence", 2, padBit},
		{"occurrence for another owner", "occurrence", 2, func(sent []byte) []byte {
			var rec [wordPad]byte
			copy(rec[:], sent[:lay.occ])
			o := lay.occFields().get(load(rec[:]))
			// A code with the census slot the record answers, owned by
			// another rank: only the routing check can refuse it.
			slot := splitmix(o.code) >> (64 - lay.slot)
			c := uint64(0)
			for ; splitmix(c)>>(64-lay.slot) != slot || hashOwner(c, p) == 0; c++ {
			}
			return append(occFrame(&lay, occRec{c, o.read, o.posRC}), sent[lay.occ:]...)
		}},
		{"ragged candidates", "candidate", 3, chop},
		{"candidate for an unknown read", "candidate", 3, func(sent []byte) []byte {
			cands, err := lay.decodeCands([][]byte{sent}, lens, 0, p)
			if err != nil {
				t.Fatal(err)
			}
			c := cands[0]
			c.task.B = 1<<lay.read - 1 // the widest read index, past the last read
			return append(lay.putCand(nil, c.code, c.task)[:lay.cand], sent[lay.cand:]...)
		}},
		{"candidate padding", "candidate", 3, padBit},
		{"candidate for another pair owner", "candidate", 3, func(sent []byte) []byte {
			cands, err := lay.decodeCands([][]byte{sent}, lens, 0, p)
			if err != nil {
				t.Fatal(err)
			}
			c := cands[0]
			for b := c.task.A + 1; int(b) < len(lens); b++ { // a valid pair that hashes to another rank
				if c.task.B = b; int(c.task.Seed.PosB)+k <= int(lens[b]) && hashOwner(c.task.Key(), p) != 0 {
					return append(lay.putCand(nil, c.code, c.task)[:lay.cand], sent[lay.cand:]...)
				}
			}
			t.Fatalf("fixture: no pair of read %d hashes past rank 0", c.task.A)
			return nil
		}},
		{"ragged tasks", "task", 4, func(sent []byte) []byte { return append(sent, 0) }},
		{"task for neither read's owner", "task", 4, func(sent []byte) []byte {
			task := overlap.Task{A: far[0], B: far[1], Seed: overlap.Seed{K: k}}
			return append(lay.putTask(nil, task)[:lay.task], sent...)
		}},
		{"ragged costs", "cost", 5, chop},
		{"cost toward the sender", "cost", 5, func(sent []byte) []byte {
			bad := append([]byte(nil), sent...)
			bad[8*(1+1)] = 1 // rank 1's free cost toward rank 1
			return bad
		}},
		{"ragged moved tasks", "task", 6, func(sent []byte) []byte { return append(sent, 0) }},
	} {
		plan, err := NewPlan(lens, p, Spec{K: k, Lo: 2, Hi: 12})
		if err != nil {
			t.Fatal(err)
		}
		plan.Stages = []Stage{DiscoverStage{}}
		world, err := par.NewWorld(par.Config{P: p})
		if err != nil {
			t.Fatal(err)
		}
		errs := make([]error, p)
		if err := world.Run(func(r rt.Runtime) {
			store := scopeRank(r, plan.Part, reads, lens)
			if r.Rank() == 1 {
				r = &lyingRuntime{Runtime: r, call: tc.call, mutate: tc.mutate}
			}
			_, errs[r.Rank()] = plan.RunStages(r, store, nil)
		}); err != nil {
			t.Fatal(err)
		}
		// A bitmap fault found in the kept-record round is a refusal rank 1
		// forged: rank 0, whose bitmap it refuses, is blamed.
		forged, blamed := tc.record == "bitmap" && tc.call == 2, 1
		if forged {
			blamed = 0
		}
		var we *WireError
		if !errors.As(errs[0], &we) || we.From != blamed || we.Record != tc.record {
			t.Errorf("%s: rank 0 returned %v, want a %s WireError from rank %d", tc.name, errs[0], tc.record, blamed)
		}
		// The sender of a refused bitmap learns it, and blames itself.
		refused := tc.record == "bitmap" && !forged
		if refused && (!errors.As(errs[1], &we) || we.From != 1 || we.Record != "bitmap") {
			t.Errorf("%s: rank 1 returned %v, want a bitmap WireError from rank 1", tc.name, errs[1])
		}
		for rk, err := range errs {
			var se *StageError
			if !errors.As(err, &se) || se.Stage != "discover" || (rk == 0 || rk == 1 && refused) != (se.Err != nil) {
				t.Errorf("%s: rank %d returned %v", tc.name, rk, err)
			}
		}
		_, err = plan.RunOn(lyingWorld{world, tc.call, tc.mutate}, func(r rt.Runtime) seq.Store {
			return scopeRank(r, plan.Part, reads, lens)
		}, nil)
		if !errors.As(err, &we) || we.From != blamed || we.Record != tc.record {
			t.Errorf("%s: RunOn returned %v, want a %s WireError from rank %d", tc.name, err, tc.record, blamed)
		}
	}
}

// lyingWorld runs its world with rank 1's runtime a lyingRuntime.
type lyingWorld struct {
	World
	call   int
	mutate func(sent []byte) []byte
}

func (w lyingWorld) Run(body func(rt.Runtime)) error {
	return w.World.Run(func(r rt.Runtime) {
		if r.Rank() == 1 {
			r = &lyingRuntime{Runtime: r, call: w.call, mutate: w.mutate}
		}
		body(r)
	})
}

// shortAnswerAlign is a BSP align stage whose rank 1 answers the first read
// it is asked for wrongly: leaves it out of the payload, or packs it twice.
type shortAnswerAlign struct{ repeat bool }

func (shortAnswerAlign) Name() string { return "align" }

func (s shortAnswerAlign) Run(r rt.Runtime, pl *Plan, store seq.Store, prev any) (any, error) {
	var codec core.Codec = core.RealCodec{Store: store}
	if r.Rank() == 1 {
		codec = &shortAnswerCodec{RealCodec: core.RealCodec{Store: store}, repeat: s.repeat}
	}
	in := &core.Input{Part: pl.Part, Lens: pl.Lens, Tasks: prev.(*Output).Tasks, Codec: codec, Store: store}
	return core.RunBSP(r, in, core.Config{Exec: core.NoopExecutor{}})
}

type shortAnswerCodec struct {
	core.RealCodec
	repeat, done bool
}

func (c *shortAnswerCodec) Encode(dst []byte, id seq.ReadID) []byte {
	if c.done {
		return c.RealCodec.Encode(dst, id)
	}
	c.done = true
	if c.repeat {
		return c.RealCodec.Encode(c.RealCodec.Encode(dst, id), id)
	}
	return dst
}

// An owner whose payload leaves out a requested read, or carries one twice,
// ends the align stage with a *StageError on every rank; the requester
// carries the *core.ExchangeError naming the owner, and nobody hangs.
func TestAlignRejectsShortOrRepeatedPayload(t *testing.T) {
	const p, k = 3, 15
	reads := mixedReads(t, 1)
	lens := workload.LensOf(reads)
	for _, repeat := range []bool{false, true} {
		plan, err := NewPlan(lens, p, Spec{K: k, Lo: 2, Hi: 12})
		if err != nil {
			t.Fatal(err)
		}
		plan.Stages = []Stage{DiscoverStage{}, shortAnswerAlign{repeat}}
		world, err := par.NewWorld(par.Config{P: p})
		if err != nil {
			t.Fatal(err)
		}
		errs := make([]error, p)
		if err := world.Run(func(r rt.Runtime) {
			_, errs[r.Rank()] = plan.RunStages(r, scopeRank(r, plan.Part, reads, lens), nil)
		}); err != nil {
			t.Fatal(err)
		}
		instigators := 0
		for rk, err := range errs {
			var se *StageError
			if !errors.As(err, &se) || se.Stage != "align" {
				t.Errorf("repeat=%v: rank %d returned %v, want an align StageError", repeat, rk, err)
				continue
			}
			var xe *core.ExchangeError
			if errors.As(err, &xe) {
				instigators++
				if xe.Rank != rk || xe.From != 1 {
					t.Errorf("repeat=%v: rank %d carries %v, want bad bytes from rank 1", repeat, rk, xe)
				}
			} else if se.Err != nil {
				t.Errorf("repeat=%v: rank %d carries %v", repeat, rk, se.Err)
			}
		}
		if instigators != 1 {
			t.Errorf("repeat=%v: %d ranks carry an ExchangeError, want the one requester", repeat, instigators)
		}
	}
}

// Allocation guard: discovery allocates per rank and per buffer doubling,
// never per k-mer. Tripling the distinct k-mers adds a few doublings. And
// it allocates few bytes per k-mer instance: the sender's buffers and the
// received frames (one 3 B census record each at this input's layout, and
// a 7 B occurrence record for the instances kept), plus the owner's count
// table and its kept records — not a decoded copy and a sort scratch of
// every instance (32 B more).
func TestDiscoverAllocsIndependentOfKmers(t *testing.T) {
	perRank := func(genomeLen, p int) (allocs, extracted, bytes float64) {
		smp, err := genome.NewSampler(genome.Generate(genome.Config{Length: genomeLen, Seed: 1}), genome.ReadConfig{
			Coverage: 20, MeanLen: 4000, SigmaLog: 0.3, Seed: 2,
			Errors: genome.ErrorModel{Substitution: 0.06, Insertion: 0.05, Deletion: 0.04},
		})
		if err != nil {
			t.Fatal(err)
		}
		reads, _ := smp.Sample()
		lens := workload.LensOf(reads)
		pt := sizePartition(t, lens, p)
		world, err := par.NewWorld(par.Config{P: p})
		if err != nil {
			t.Fatal(err)
		}
		outs := make([]*Output, p)
		run := func() {
			world.Run(func(r rt.Runtime) {
				outs[r.Rank()], _ = (&Plan{Part: pt, Lens: lens, K: 15, Lo: 2, Hi: 60}).Run(r, scopeRank(r, pt, reads, lens))
			})
		}
		allocs = testing.AllocsPerRun(2, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		for _, out := range outs {
			extracted += float64(out.KmersExtracted)
		}
		return allocs / float64(p), extracted, float64(after.TotalAlloc-before.TotalAlloc) / extracted
	}
	for _, p := range []int{2, 8} {
		small, nSmall, _ := perRank(30000, p)
		large, nLarge, perKmer := perRank(100000, p)
		if nLarge < 2.5*nSmall {
			t.Fatalf("P=%d: %.0f vs %.0f k-mers: the inputs no longer differ in size", p, nSmall, nLarge)
		}
		if limit := 32 * (float64(p) + math.Log2(nLarge)); large > limit || large > 1.25*small {
			t.Errorf("P=%d: %.0f allocations per rank for %.0f k-mers, %.0f for %.0f (limit %.0f and 1.25x)",
				p, small, nSmall, large, nLarge, limit)
		}
		// About 42.5 B on this input at either P; 51.6 B when every
		// instance crossed as a 7-byte occurrence record, 82 B with 16-byte
		// records, 100 B when the owner decoded and sorted every instance.
		t.Logf("P=%d: %.1f bytes allocated per k-mer instance", p, perKmer)
		if perKmer > 48 {
			t.Errorf("P=%d: %.1f bytes allocated per k-mer instance (limit 48)", p, perKmer)
		}
	}
}

// fuzzPlan maps fuzzed plan inputs to a layout and its read lengths: k 1
// to 31, 1 to 4096 reads, the longest up to 2^31-1 bases, a census slot of
// 0 to 20 bits.
func fuzzPlan(k uint8, reads uint16, longest uint32, slot uint8) (layout, []int32) {
	lens := make([]int32, 1+int(reads)%4096)
	for i := range lens {
		lens[i] = int32(longest&math.MaxInt32) >> (i % 4)
	}
	return newLayout(1+int(k)%kmer.MaxK, len(lens), int(lens[0]), uint(slot)%21), lens
}

// maxFuzzFrame is the longest frame FuzzDiscoverWire decodes.
const maxFuzzFrame = 256

// FuzzDiscoverWire feeds arbitrary bytes to every decoder a peer's frame
// reaches, under a fuzzed layout (the seeds hold one of exactly 64 bits an
// occurrence and one of more), the placement's cost rows included. None may
// panic or index out of range; a ragged frame is a *WireError naming the
// sender; whatever is accepted
// satisfies what the later stages index by (reads in range, windows inside
// their reads, records at the rank that owns them) and re-encodes to the
// bytes it came from, so no accepted record has a padding bit set. An
// accepted census is answered with a bitmap that keeps exactly the records
// whose slot it holds twice or more, and counts the rest as singles. A
// keep bitmap is accepted only at one bit a census record with no bit past
// the last. A frame of kept occurrences is accepted only if it answers its
// census record for record; a refusal is a *WireError naming its receiver.
func FuzzDiscoverWire(f *testing.F) {
	const from, p = 2, 3
	for _, pl := range []struct {
		k       uint8
		reads   uint16
		longest uint32
		slot    uint8
	}{{5, 4, 64, 4}, {17, 1023, 300000, 20}, {31, 4095, math.MaxInt32, 9}} { // occurrences of 21, 64 and 106 bits
		l, _ := fuzzPlan(pl.k, pl.reads, pl.longest, pl.slot)
		k := int16(l.k)
		occs := []occRec{{7, 0, 3 << 1}, {7, 2, 1<<1 | 1}}
		f.Add(occFrame(&l, occs...), pl.k, pl.reads, pl.longest, pl.slot)
		f.Add(l.putCand(nil, 99, overlap.Task{A: 0, B: 2, Seed: overlap.Seed{PosA: 1, PosB: 5, K: k, RC: true}}), pl.k, pl.reads, pl.longest, pl.slot)
		f.Add(l.putTask(nil, overlap.Task{A: 1, B: 4, Seed: overlap.Seed{PosA: 3, PosB: 20, K: k}}), pl.k, pl.reads, pl.longest, pl.slot)
	}
	f.Add([]byte{1, 2, 3}, uint8(5), uint16(4), uint32(64), uint8(0))
	for _, slot := range []uint8{0, 11, 20} {
		l, _ := fuzzPlan(17, 1023, 300000, slot)
		f.Add(censusFrame(&l, occRec{code: 7}, occRec{code: 9}, occRec{code: 7}), uint8(17), uint16(1023), uint32(300000), slot)
	}
	f.Add(allKept(13), uint8(5), uint16(13), uint32(64), uint8(0))
	l, _ := fuzzPlan(5, 4, 64, 4)
	f.Add(l.refusal(), uint8(5), uint16(4), uint32(64), uint8(4))
	f.Add(putCosts([]int64{10, 3, 0, 0, 0, 4, 0}), uint8(5), uint16(4), uint32(64), uint8(4))
	// check vets one decoder's verdict and reports whether it accepted.
	check := func(t *testing.T, record string, size int, data []byte, err error, accepted int) bool {
		switch {
		case err == nil && accepted*size != len(data):
			t.Fatalf("%s: %d bytes accepted as %d records", record, len(data), accepted)
		case err != nil && !isWireError(err, record, from):
			t.Fatalf("%s: error %v is not a WireError from rank %d", record, err, from)
		}
		return err == nil
	}
	f.Fuzz(func(t *testing.T, data []byte, kIn uint8, reads uint16, longest uint32, slot uint8) {
		// A longer frame only repeats records (24 bytes at most each), and
		// the engine minimizes a new input in time quadratic in its length,
		// each try a pass over it: one of a few kilobytes held the only
		// worker for the whole -fuzztime, at 0 execs a second.
		if len(data) > maxFuzzFrame {
			return
		}
		l, lens := fuzzPlan(kIn, reads, longest, slot)
		k := l.k
		windowOK := func(t overlap.Task) bool {
			return t.A < t.B && int(t.B) < len(lens) && t.Seed.PosA >= 0 && t.Seed.PosB >= 0 &&
				int(t.Seed.PosA)+k <= int(lens[t.A]) && int(t.Seed.PosB)+k <= int(lens[t.B])
		}
		frames := make([][]byte, p)
		frames[from] = data

		// The census, counted at its owner.
		keep, singles, err := keepBitmaps(frames, &l)
		if n := (len(data) + l.census - 1) / l.census; len(keep[from]) != (n+7)/8 {
			t.Fatalf("census: %d bytes answered with a %d-byte bitmap", len(data), len(keep[from]))
		}
		if check(t, "census", l.census, data, err, len(data)/l.census) {
			n, freq := len(data)/l.census, map[uint64]int{}
			var again []byte
			for i := range n {
				s := l.censusSlot(data, i)
				freq[s]++
				again = appendRec(again, l.census, s, 0, 0)
			}
			if string(again) != string(data) {
				t.Fatal("census records do not re-encode to their frame")
			}
			unset := 0
			for i := range n {
				bit := keep[from][i>>3] >> (i & 7) & 1
				if (bit == 1) != (freq[l.censusSlot(data, i)] > 1) {
					t.Fatalf("census record %d: slot seen %d times, kept %d", i, freq[l.censusSlot(data, i)], bit)
				}
				unset += int(1 - bit)
			}
			if int(singles) != unset || ones(keep[from]) != n-unset {
				t.Fatalf("census: %d singles, %d bits set, for %d records %d unset", singles, ones(keep[from]), n, unset)
			}
		}

		// The same bytes as a keep bitmap answering n census records.
		n := int(reads) % (8*len(data) + 9)
		err = checkBitmap(from, data, n)
		ok := len(data) == (n+7)/8 && (n%8 == 0 || data[len(data)-1]>>(n%8) == 0)
		if ok != (err == nil) || err != nil && !isWireError(err, "bitmap", from) {
			t.Fatalf("bitmap of %d bytes for %d records: %v", len(data), n, err)
		}

		// Kept occurrences answering a census of their own slots, all kept,
		// at the rank that owns the first record's code.
		var recs []occRec
		for b := data; len(b) >= l.occ; b = b[l.occ:] {
			var rec [wordPad]byte // the record's own bytes, zeros after
			copy(rec[:], b[:l.occ])
			recs = append(recs, l.occFields().get(load(rec[:])))
		}
		me := 0
		if len(recs) > 0 {
			me = hashOwner(recs[0].code, p)
		}
		census, bitmaps := make([][]byte, p), make([][]byte, p)
		census[from], bitmaps[from] = censusFrame(&l, recs...), allKept(len(recs))
		kept, err := keptOccs(frames, census, bitmaps, lens, &l, me)
		if l.refused(data) {
			if !isWireError(err, "bitmap", me) {
				t.Fatalf("a refusal at rank %d: %v", me, err)
			}
		} else if again := []byte(nil); check(t, "occurrence", l.occ, data, err, len(kept)) {
			for _, o := range kept {
				if int(o.read) >= len(lens) || int(o.posRC>>1)+k > int(lens[o.read]) || o.code >= 1<<(2*k) || hashOwner(o.code, p) != me {
					t.Fatalf("accepted occurrence %+v at rank %d", o, me)
				}
				again = append(again, occFrame(&l, o)...)
			}
			if string(again) != string(data) {
				t.Fatal("occurrences do not re-encode to their frame")
			}
			if len(recs) > 0 { // one record more than the bitmap keeps
				bitmaps[from] = allKept(len(recs) - 1)
				if _, err := keptOccs(frames, census, bitmaps, lens, &l, me); !isWireError(err, "occurrence", from) {
					t.Fatalf("%d occurrences answering %d kept census records: %v", len(recs), len(recs)-1, err)
				}
			}
		}

		// Candidates at rank kIn mod p; tasks at the owner of the last half
		// of the reads or of all of them.
		cme := int(kIn) % p
		cands, err := l.decodeCands(frames, lens, cme, p)
		if again := []byte(nil); check(t, "candidate", l.cand, data, err, len(cands)) {
			for _, c := range cands {
				if !windowOK(c.task) || hashOwner(c.task.Key(), p) != cme {
					t.Fatalf("accepted candidate %+v at rank %d", c, cme)
				}
				again = l.putCand(again, c.code, c.task)
			}
			if string(again) != string(data) {
				t.Fatal("candidates do not re-encode to their frame")
			}
		}
		lo := len(lens) / 2 * int(slot&1)
		tasks, err := l.decodeTasks(frames, lens, lo, len(lens))
		if again := []byte(nil); check(t, "task", l.task, data, err, len(tasks)) {
			for _, task := range tasks {
				if !windowOK(task) || int(task.B) < lo {
					t.Fatalf("accepted task %+v at the owner of reads from %d", task, lo)
				}
				again = l.putTask(again, task)
			}
			if string(again) != string(data) {
				t.Fatal("tasks do not re-encode to their frame")
			}
		}

		// The same bytes as the sender's cost row, beside two rows of zero.
		costs := make([][]byte, p)
		for r := range costs {
			costs[r] = putCosts(make([]int64, 1+2*p))
		}
		costs[from] = data
		cost, free, rest, err := decodeCosts(costs)
		if check(t, "cost", len(data), data, err, min(len(cost), 1)) {
			row := append(append([]int64{cost[from]}, free[from]...), rest[from]...)
			var movable int64
			for _, v := range row[1:] {
				movable += v
			}
			if free[from][from] != 0 || rest[from][from] != 0 || movable > row[0] || row[0] > math.MaxInt64/p {
				t.Fatalf("accepted cost row %v from rank %d", row, from)
			}
			if string(putCosts(row)) != string(data) {
				t.Fatal("the cost row does not re-encode to its frame")
			}
		}
	})
}

// TestJobSpecValidateBoundsX pins the X-drop bound: MaxX is the largest x
// a job may ask for, and one more is refused before any run starts.
func TestJobSpecValidateBoundsX(t *testing.T) {
	s := DefaultJobSpec()
	s.X = MaxX
	if err := s.Validate(); err != nil {
		t.Fatalf("x=MaxX: %v", err)
	}
	s.X = MaxX + 1
	if err := s.Validate(); err == nil {
		t.Fatalf("x=%d passed Validate, want an error", s.X)
	}
}
