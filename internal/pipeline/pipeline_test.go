package pipeline

import (
	"encoding/binary"
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
func occFrame(recs ...occRec) []byte {
	var buf []byte
	for _, o := range recs {
		buf = binary.LittleEndian.AppendUint64(buf, o.code)
		buf = binary.LittleEndian.AppendUint32(buf, o.read)
		buf = binary.LittleEndian.AppendUint32(buf, o.posRC)
	}
	return buf
}

// The run scan takes a run's (read, pos) order from a stable sort, which
// rests on two things, both pinned here. Ranks own contiguous ascending
// read ranges, empty ones included, so frames decoded in rank order are in
// (read, pos) order; and repeatedOccs refuses frames that are not — swapped
// sources, or records out of order within one — naming the sender, so a
// partition or transport that broke the contract could not silently move
// a seed.
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

	const k = 5
	lens := []int32{30, 30, 30, 30}
	rank0 := occFrame(occRec{7, 0, 3 << 1}, occRec{9, 0, 8<<1 | 1}, occRec{7, 1, 0})
	rank1 := occFrame(occRec{9, 2, 4 << 1}, occRec{7, 3, 25<<1 | 1})
	decode := func(frames ...[]byte) ([]occRec, error) {
		recs, _, err := repeatedOccs(frames, lens, k, occSlots)
		return recs, err
	}
	recs, err := decode(rank0, nil, rank1)
	if err != nil || len(recs) != 5 {
		t.Fatalf("honest frames: %d records kept, %v", len(recs), err)
	}
	sorted := sortByCode(recs, make([]occRec, len(recs)), 2*k)
	want := []occRec{{7, 0, 3 << 1}, {7, 1, 0}, {7, 3, 25<<1 | 1}, {9, 0, 8<<1 | 1}, {9, 2, 4 << 1}}
	for i, o := range sorted {
		if o != want[i] {
			t.Fatalf("sorted record %d = %+v, want %+v", i, o, want[i])
		}
	}
	for _, tc := range []struct {
		name   string
		frames [][]byte
		from   int
	}{
		{"sources swapped", [][]byte{rank1, rank0}, 1},
		{"records swapped", [][]byte{occFrame(occRec{7, 1, 0}, occRec{7, 0, 3 << 1})}, 0},
		{"a position twice", [][]byte{occFrame(occRec{7, 0, 3 << 1}, occRec{9, 0, 3<<1 | 1})}, 0},
		{"ragged", [][]byte{rank0, rank1[:len(rank1)-1]}, 1},
		{"read out of range", [][]byte{occFrame(occRec{7, 4, 0})}, 0},
		{"window past the read", [][]byte{occFrame(occRec{7, 0, 26 << 1})}, 0},
		{"code wider than 2k bits", [][]byte{occFrame(occRec{1 << (2 * k), 0, 0})}, 0},
	} {
		_, err := decode(tc.frames...)
		var we *WireError
		if !errors.As(err, &we) || we.From != tc.from || we.Record != "occurrence" {
			t.Errorf("%s: got %v, want an occurrence WireError from rank %d", tc.name, err, tc.from)
		}
	}
}

// Dropping singletons changes nothing the owner sends or counts: over random
// honest frames, with the count table shrunk until every code shares one
// slot and at its full size, the kept records sorted and run-scanned give
// the same candidate frames, KmersOwned, KmersRetained and PairsEmitted as
// every record sorted and run-scanned. No candidate is seeded by a k-mer
// seen once, whatever Lo is.
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

		// Windows in (read, pos) order, split into p consecutive frames; a
		// code is fresh (most likely a singleton) or from a small pool.
		pool := make([]uint64, 1+rng.Intn(40))
		for i := range pool {
			pool[i] = rng.Uint64() >> (64 - 2*k)
		}
		var all []occRec
		for read, l := range lens {
			for pos := 0; pos+k <= int(l); pos++ {
				if rng.Intn(3) == 0 {
					continue
				}
				code := rng.Uint64() >> (64 - 2*k)
				if rng.Intn(4) == 0 {
					code = pool[rng.Intn(len(pool))]
				}
				all = append(all, occRec{code, uint32(read), uint32(pos)<<1 | uint32(rng.Intn(2))})
			}
		}
		frames := make([][]byte, p)
		for i, o := range all {
			frames[i*p/len(all)] = append(frames[i*p/len(all)], occFrame(o)...)
		}
		freq := map[uint64]int{}
		for _, o := range all {
			freq[o.code]++
		}

		want := &Output{}
		wantSend := make([][]byte, p)
		ref := append([]occRec(nil), all...)
		pl.scanRuns(sortByCode(ref, make([]occRec, len(ref)), 2*k), wantSend, want)
		for _, slots := range []int{0, 1, occSlots} {
			label := fmt.Sprintf("trial %d k=%d Lo=%d Hi=%d, %d slots per record", trial, k, pl.Lo, pl.Hi, slots)
			kept, singles, err := repeatedOccs(frames, lens, k, slots)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got := &Output{KmersOwned: singles}
			send := make([][]byte, p)
			pl.scanRuns(sortByCode(kept, make([]occRec, len(kept)), 2*k), send, got)
			if got.KmersOwned != want.KmersOwned || got.KmersRetained != want.KmersRetained || got.PairsEmitted != want.PairsEmitted {
				t.Fatalf("%s: kept %d of %d records; stats %+v, every record %+v", label, len(kept), len(all), *got, *want)
			}
			pairs, dropped = pairs+got.PairsEmitted, dropped+singles
			for dst := range send {
				if string(send[dst]) != string(wantSend[dst]) {
					t.Fatalf("%s: candidates for rank %d differ", label, dst)
				}
				for b := send[dst]; len(b) > 0; b = b[candWire:] {
					if code := binary.LittleEndian.Uint64(b); freq[code] < 2 {
						t.Fatalf("%s: code %d, seen %d times, seeded a candidate", label, code, freq[code])
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

// A malformed frame in any of discover's record rounds — ragged, or
// holding a record no scan produces — ends the stage with a *StageError on
// every rank; the one that decoded it carries the *WireError naming the
// sender, and nobody hangs in a later round.
func TestDiscoverRejectsCorruptPeer(t *testing.T) {
	const p, k = 3, 15
	reads := mixedReads(t, 1)
	lens := workload.LensOf(reads)
	chop := func(sent []byte) []byte { return sent[:len(sent)-1] }
	for _, tc := range []struct {
		name, record string
		call         int
		mutate       func([]byte) []byte
	}{
		{"ragged occurrences", "occurrence", 0, chop},
		{"occurrences out of order", "occurrence", 0, func(sent []byte) []byte {
			return append(append([]byte(nil), sent[occWire:2*occWire]...), sent[:occWire]...)
		}},
		{"ragged candidates", "candidate", 1, chop},
		{"candidate for an unknown read", "candidate", 1, func(sent []byte) []byte {
			bad := append([]byte(nil), sent...)
			binary.LittleEndian.PutUint32(bad[12:], uint32(len(lens)))
			return bad
		}},
		{"ragged tasks", "task", 2, func(sent []byte) []byte { return append(sent, 0) }},
		{"ragged moved tasks", "task", 4, func(sent []byte) []byte { return append(sent, 0) }},
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
		var we *WireError
		if !errors.As(errs[0], &we) || we.From != 1 || we.Record != tc.record {
			t.Errorf("%s: rank 0 returned %v, want a %s WireError from rank 1", tc.name, errs[0], tc.record)
		}
		for rk, err := range errs {
			var se *StageError
			if !errors.As(err, &se) || se.Stage != "discover" || (rk != 0) != (se.Err == nil) {
				t.Errorf("%s: rank %d returned %v", tc.name, rk, err)
			}
		}
	}
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
// received frames (16 B each), plus the owner's count table and its kept
// records — not a decoded copy and a sort scratch of every instance (32 B
// more).
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
		// About 82 B on this input at either P; 100 B when the owner decoded
		// and sorted every instance.
		if perKmer > 90 {
			t.Errorf("P=%d: %.1f bytes allocated per k-mer instance (limit 90)", p, perKmer)
		}
	}
}

// FuzzDiscoverWire feeds arbitrary bytes to the three decoders a peer's
// frame reaches. None may panic or index out of range; a ragged frame is a
// *WireError naming the sender; whatever is accepted satisfies what the
// later stages index by (reads in range, windows inside their reads).
// Accepted candidates and tasks re-encode to the bytes they came from; the
// occurrences kept, at the full table size and with every code in one slot,
// are a subsequence of the frame that holds every repeated code whole, and
// the singletons dropped make up the rest of the frame's distinct codes.
func FuzzDiscoverWire(f *testing.F) {
	const k, from = 5, 2
	lens := []int32{30, 8, 30, 5, 64}
	f.Add(occFrame(occRec{7, 0, 3 << 1}, occRec{9, 2, 8<<1 | 1}))
	f.Add(putTask(binary.LittleEndian.AppendUint64(nil, 99), overlap.Task{A: 0, B: 2, Seed: overlap.Seed{PosA: 1, PosB: 20, K: k, RC: true}}))
	f.Add(putTask(nil, overlap.Task{A: 1, B: 4, Seed: overlap.Seed{PosA: 3, PosB: 59, K: k}}))
	f.Add([]byte{1, 2, 3})
	windowOK := func(t overlap.Task) bool {
		return t.A < t.B && int(t.B) < len(lens) && t.Seed.PosA >= 0 && t.Seed.PosB >= 0 &&
			int(t.Seed.PosA)+k <= int(lens[t.A]) && int(t.Seed.PosB)+k <= int(lens[t.B])
	}
	// check vets one decoder's verdict and reports whether it accepted.
	check := func(t *testing.T, record string, size int, data []byte, err error, accepted int) bool {
		var we *WireError
		switch {
		case err == nil && accepted*size != len(data):
			t.Fatalf("%s: %d bytes accepted as %d records", record, len(data), accepted)
		case err != nil && (!errors.As(err, &we) || we.From != from || we.Record != record):
			t.Fatalf("%s: error %v is not a WireError from rank %d", record, err, from)
		}
		return err == nil
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		frames := make([][]byte, from+1)
		frames[from] = data
		var again []byte
		for _, slots := range []int{occSlots, 0} {
			kept, singles, err := repeatedOccs(frames, lens, k, slots)
			if !check(t, "occurrence", occWire, data, err, len(data)/occWire) {
				break
			}
			freq := map[uint64]int{}
			for b := data; len(b) > 0; b = b[occWire:] {
				freq[binary.LittleEndian.Uint64(b)]++
			}
			rest, keptFreq := data, map[uint64]int{}
			for _, o := range kept {
				if int(o.read) >= len(lens) || int(o.posRC>>1)+k > int(lens[o.read]) || o.code >= 1<<(2*k) {
					t.Fatalf("accepted occurrence %+v", o)
				}
				rec := occFrame(o)
				for len(rest) > 0 && string(rest[:occWire]) != string(rec) {
					rest = rest[occWire:]
				}
				if len(rest) == 0 {
					t.Fatalf("%d slots per record: kept %+v is not a subsequence of the frame", slots, o)
				}
				rest = rest[occWire:]
				keptFreq[o.code]++
			}
			all := slots == 0 && len(data) > occWire // one slot: every code collides
			for code, n := range freq {
				if got := keptFreq[code]; got != n && (n > 1 || all || got != 0) {
					t.Fatalf("%d slots per record: code %d seen %d times, %d kept", slots, code, n, got)
				}
			}
			if int(singles)+len(keptFreq) != len(freq) {
				t.Fatalf("%d slots per record: %d singles + %d kept codes, %d codes in the frame", slots, singles, len(keptFreq), len(freq))
			}
		}
		cands, err := decodeCands(frames, lens, k)
		if check(t, "candidate", candWire, data, err, len(cands)) {
			for _, c := range cands {
				if !windowOK(c.task) {
					t.Fatalf("accepted candidate %+v", c)
				}
				again = putTask(binary.LittleEndian.AppendUint64(again, c.code), c.task)
			}
			if string(again) != string(data) {
				t.Fatal("candidates do not re-encode to their frame")
			}
		}
		tasks, err := decodeTasks(frames, lens, k)
		if again = nil; check(t, "task", taskWire, data, err, len(tasks)) {
			for _, task := range tasks {
				if !windowOK(task) {
					t.Fatalf("accepted task %+v", task)
				}
				again = putTask(again, task)
			}
			if string(again) != string(data) {
				t.Fatal("tasks do not re-encode to their frame")
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
