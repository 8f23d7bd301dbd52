// Package pipeline implements DiBELLA's stages 1-2 as a distributed SPMD
// program on the rt.Runtime interface (paper §3), as a sort over flat
// records packed at field widths the plan fixes (wire.go): each rank turns
// every k-mer instance of its own reads into one occurrence record (7 bytes
// at k = 17 for up to 128 reads of up to 16 kb) routed to the canonical code's
// hash owner in an irregular all-to-all; the owner radix-sorts what it
// received by code, less the k-mers a count table proves it saw once, and
// scans the runs — a run's length is the k-mer's
// global count, tested once against the reliable-frequency window, and a
// retained run's first occurrence per read turns into candidate pairs;
// pairs are deduplicated at hash owners by sorting on the pair and keeping
// each run's smallest-code seed (matching the serial reference exactly,
// and yielding pair order); finally the tasks are redistributed to read
// owners under the owner invariant with count balancing ("the tasks are
// roughly balanced across the processors").
//
// The union of every rank's output tasks equals overlap.FromReadSet's
// serial result — seed for seed — which the tests enforce.
package pipeline

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"gnbody/internal/kmer"
	"gnbody/internal/overlap"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
)

// Output is the rank's share of the discovered work.
type Output struct {
	Tasks []overlap.Task // tasks assigned to this rank (owner invariant)

	// Stage statistics (this rank's share).
	KmersExtracted int64 // k-mer instances scanned from local reads
	KmersOwned     int64 // distinct canonical k-mers this rank arbitrates
	KmersRetained  int64 // owned k-mers inside the reliable window
	PairsEmitted   int64 // candidate pairs generated before dedup
	PairsOwned     int64 // deduplicated pairs this rank arbitrated
}

// occRec is one k-mer instance in memory; on the wire it is packed at the
// plan's layout (wire.go).
type occRec struct {
	code  uint64
	read  uint32
	posRC uint32
}

// candRec is a candidate pair and the canonical code that produced it
// (dedup keeps the smallest code's seed).
type candRec struct {
	code uint64
	task overlap.Task
}

// occSlots sizes the owner's count table: occSlots to 2·occSlots one-byte
// slots per received occurrence record, a power of two.
const occSlots = 4

// repeatedOccs decodes a round of occurrence frames, keeping only the
// records that can seed a pair. Pass 1 checks every record for what the run
// scan relies on — no bit above the layout's fields, windows inside their
// reads, and (read, pos) strictly ascending throughout, the ordering
// contract that lets a stable sort by code stand in for a sort by (code,
// read, pos): ranks own contiguous ascending read ranges (Partition.Range),
// scan them in order, and their frames are decoded in rank order. It also
// counts each code into a saturating 0/1/2 table of about slots per record,
// indexed by the high bits of splitmix(code). Pass 2 keeps, in frame order,
// the records whose slot reached 2.
//
// Every record of a code shares its slot, so a code seen twice or more is
// kept whole and its run is still its global instance count. A dropped
// record is alone in its slot: a distinct k-mer seen once, counted in
// singles. A singleton kept through a collision is a run of one, which the
// run scan's floor of 2 drops.
func repeatedOccs(frames [][]byte, lens []int32, l *layout, slots int) (kept []occRec, singles int64, err error) {
	n := 0
	for _, buf := range frames {
		n += len(buf) / l.occ
	}
	tableBits := bits.Len(uint(slots * n))
	seen := make([]uint8, 1<<tableBits)
	shift := 64 - tableBits
	f, size, top := l.occFields(), l.occ, padTop(l.occ, l.code()+l.read+l.pos)
	keep := 0
	next := uint64(0) // the smallest (read, pos) the next record may carry
	var tail [2 * wordPad]byte
	for from, buf := range frames {
		if err := ragged("occurrence", from, buf, size); err != nil {
			return nil, 0, err
		}
		for _, seg := range segments(buf, size, &tail) {
			for ; len(seg) > 0; seg = seg[size:] {
				b := seg[:wordPad]
				o := f.get(load(b))
				h := splitmix(o.code) >> shift // the table access first: its miss overlaps the checks
				s := seen[h]
				seen[h] = s + 1 - s>>1
				keep += int(s&1<<1 | s>>1) // the second record of a slot keeps itself and the first
				at := uint64(o.read)<<32 | uint64(o.posRC>>1)
				if b[size-1]>>top != 0 || int(o.read) >= len(lens) || int(o.posRC>>1)+l.k > int(lens[o.read]) || at < next {
					return nil, 0, badRecord("occurrence", from, b[:size])
				}
				next = at + 1
			}
		}
	}
	// Branch-free: every record is written, and the index moves past it only
	// if its slot reached 2 (hence the one spare element).
	kept = make([]occRec, keep+1)
	j := 0
	for _, buf := range frames {
		for _, seg := range segments(buf, size, &tail) {
			for ; len(seg) > 0; seg = seg[size:] {
				o := f.get(load(seg[:wordPad]))
				kept[j] = o
				j += int(seen[splitmix(o.code)>>shift] >> 1)
			}
		}
	}
	return kept[:keep], int64(n - keep), nil
}

// hashOwner routes a 64-bit key to a rank.
func hashOwner(key uint64, p int) int { return int(splitmix(key) % uint64(p)) }

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Run executes one rank's share of stages 1-2 under the plan. Collective:
// all ranks call it, each with its own owner-only store; a plan may run on
// a world that has already run others, with no reset in between. A bad
// frame from a peer is remembered, not returned at once: the rank still
// enters every remaining round, with nothing to send, so that no peer is
// left waiting in a collective, and reports its errors last.
func (pl *Plan) Run(r rt.Runtime, store seq.Store) (*Output, error) {
	if pl.K <= 0 || pl.K > kmer.MaxK {
		return nil, fmt.Errorf("pipeline: k=%d out of range", pl.K)
	}
	out := &Output{}
	p := r.Size()
	var fail error

	lay := pl.layout()

	// --- Stage: local k-mer extraction, routed by canonical-code hash. ---
	sendOcc := make([][]byte, p)
	r.Timed(rt.CatOverhead, func() {
		lo, hi := pl.Part.Range(r.Rank())
		bases := 0
		for _, l := range pl.Lens[lo:hi] {
			bases += int(l)
		}
		for dst := range sendOcc { // an even share plus an eighth: growth is the exception
			sendOcc[dst] = make([]byte, 0, lay.occ*(bases/p+bases/(8*p)+8)+wordPad)
		}
		occ := lay.occFields()
		for i := lo; i < hi && fail == nil; i++ {
			fail = kmer.Scan(store.Get(seq.ReadID(i)), pl.K, func(pos int, c kmer.Code, rc bool) {
				out.KmersExtracted++
				posRC := uint32(pos) << 1
				if rc {
					posRC |= 1
				}
				dst := hashOwner(uint64(c), p)
				w0, w1 := occ.put(uint64(c), uint32(i), posRC)
				sendOcc[dst] = appendRec(sendOcc[dst], lay.occ, w0, w1, 0)
			})
		}
	})
	recvOcc := r.Alltoallv(sendOcc)

	// --- Stage: drop singletons, sort by code, scan the runs. ---
	sendTask := make([][]byte, p)
	r.Timed(rt.CatOverhead, func() {
		recs, singles, err := repeatedOccs(recvOcc, pl.Lens, &lay, occSlots)
		if fail = errors.Join(fail, err); fail != nil {
			return
		}
		out.KmersOwned += singles
		pl.scanRuns(sortByCode(recs, make([]occRec, len(recs)), 2*pl.K), &lay, sendTask, out)
	})
	recvTask := r.Alltoallv(sendTask)

	// --- Stage: pair dedup (min-code seed wins, as in the serial path). ---
	var deduped []overlap.Task
	r.Timed(rt.CatOverhead, func() {
		cands, err := lay.decodeCands(recvTask, pl.Lens)
		if fail = errors.Join(fail, err); fail != nil {
			return
		}
		// The occurrence sort again, on 16-byte handles: code holds the pair
		// as the dense key A·reads+B, read the candidate's index. A run is
		// one pair; its smallest-code candidate wins.
		nreads := uint64(len(pl.Lens))
		handles := make([]occRec, len(cands))
		for i, c := range cands {
			handles[i] = occRec{code: uint64(c.task.A)*nreads + uint64(c.task.B), read: uint32(i)}
		}
		handles = sortByCode(handles, make([]occRec, len(cands)), 2*bits.Len64(nreads))
		deduped = make([]overlap.Task, 0, len(cands))
		var best uint64 // the current pair's smallest code so far
		for i, h := range handles {
			c := cands[h.read]
			if i > 0 && h.code == handles[i-1].code {
				if c.code < best {
					deduped[len(deduped)-1], best = c.task, c.code
				}
				continue
			}
			deduped, best = append(deduped, c.task), c.code
		}
		out.PairsOwned = int64(len(deduped))
	})

	// --- Stage: task redistribution to read owners, count-balanced. ---
	tasks, err := redistribute(r, pl, &lay, deduped)
	if err = errors.Join(fail, err); err != nil {
		return nil, err
	}
	out.Tasks = tasks
	return out, nil
}

// scanRuns is the owner's pass over recs sorted by code: a run is a k-mer,
// its length the global count. It counts the runs into out and appends each
// retained run's candidates to send, by the pair's hash owner.
func (pl *Plan) scanRuns(recs []occRec, lay *layout, send [][]byte, out *Output) {
	lo := max(pl.Lo, 2) // a k-mer must occur twice to pair anything
	for len(recs) > 0 {
		count := 1
		for count < len(recs) && recs[count].code == recs[0].code {
			count++
		}
		run := recs[:count]
		recs = recs[count:]
		out.KmersOwned++
		if count < lo || count > pl.Hi {
			continue
		}
		out.KmersRetained++
		// keepPerRead=1: only a read's first occurrence of each code seeds
		// candidates (one seed per candidate overlap, §4). The run is in
		// (read, pos) order, so that is the first of each read.
		reads := 1
		for _, o := range run[1:] {
			if o.read != run[reads-1].read {
				run[reads] = o
				reads++
			}
		}
		for i, a := range run[:reads] {
			for _, b := range run[i+1 : reads] { // a.read < b.read
				t := overlap.Task{A: seq.ReadID(a.read), B: seq.ReadID(b.read), Seed: overlap.Seed{
					PosA: int32(a.posRC >> 1), PosB: int32(b.posRC >> 1), K: int16(pl.K), RC: (a.posRC^b.posRC)&1 == 1}}
				if t.Seed.RC {
					t.Seed.PosB = pl.Lens[b.read] - t.Seed.PosB - int32(pl.K)
				}
				out.PairsEmitted++
				dst := hashOwner(t.Key(), len(send))
				send[dst] = lay.putCand(send[dst], a.code, t)
			}
		}
	}
}

// radixBits is the digit width of sortByCode: a 34-bit code (k=17, the
// paper's k) takes three passes, and 2^12 counters still sit in L1.
const radixBits = 12

// sortByCode stable-sorts recs by the low width bits of code with an LSD
// radix sort, ping-ponging between recs and tmp (equal lengths), and
// returns whichever of the two holds the result.
func sortByCode(recs, tmp []occRec, width int) []occRec {
	var count [1 << radixBits]int
	for shift := 0; shift < width; shift += radixBits {
		clear(count[:])
		for i := range recs {
			count[recs[i].code>>shift&(1<<radixBits-1)]++
		}
		sum := 0
		for d, c := range count {
			count[d], sum = sum, sum+c
		}
		for i := range recs {
			d := recs[i].code >> shift & (1<<radixBits - 1)
			tmp[count[d]] = recs[i]
			count[d]++
		}
		recs, tmp = tmp, recs
	}
	return recs
}

// redistribute sends each deduplicated task (in pair-key order) to the
// owner of one of its reads, balancing counts: a hash parity picks the
// initial owner (an unbiased even split of every rank's eligibility), then
// one global refinement round moves surplus tasks from overloaded ranks
// toward their alternative owner in proportion to the measured imbalance.
// Like Run, it enters all three rounds whatever it decodes on the way.
func redistribute(r rt.Runtime, pl *Plan, lay *layout, deduped []overlap.Task) ([]overlap.Task, error) {
	p := r.Size()

	// Initial split: hash parity chooses owner(A) vs owner(B).
	send := make([][]byte, p)
	for _, t := range deduped {
		owner := pl.Part.Owner(t.A)
		if alt := pl.Part.Owner(t.B); alt != owner && splitmix(t.Key())&1 == 1 {
			owner = alt
		}
		send[owner] = lay.putTask(send[owner], t)
	}
	mine, err1 := lay.decodeTasks(r.Alltoallv(send), pl.Lens)

	// Refinement: learn everyone's counts (an allgather via alltoallv),
	// then overloaded ranks push surplus toward underloaded alternates.
	counts, err2 := allgatherCounts(r, int64(len(mine)))
	moved := make([][]byte, p)
	var kept []overlap.Task
	if err1 == nil && err2 == nil {
		var total int64
		for _, c := range counts {
			total += c
		}
		mean := total / int64(p)
		surplus := int64(len(mine)) - mean
		for _, t := range mine {
			ra, rb := pl.Part.Owner(t.A), pl.Part.Owner(t.B)
			alt := ra
			if ra == r.Rank() {
				alt = rb
			}
			if surplus > 0 && alt != r.Rank() && counts[alt] < mean {
				moved[alt] = lay.putTask(moved[alt], t)
				surplus--
				continue
			}
			kept = append(kept, t)
		}
	}
	incoming, err3 := lay.decodeTasks(r.Alltoallv(moved), pl.Lens)
	kept = append(kept, incoming...)
	overlap.SortTasks(kept)
	return kept, errors.Join(err1, err2, err3)
}

// allgatherCounts shares every rank's task count via a tiny alltoallv.
func allgatherCounts(r rt.Runtime, mine int64) ([]int64, error) {
	send := make([][]byte, r.Size())
	rec := binary.LittleEndian.AppendUint64(nil, uint64(mine))
	for dst := range send {
		send[dst] = rec
	}
	counts := make([]int64, len(send))
	for src, buf := range r.Alltoallv(send) {
		if len(buf) != len(rec) {
			return nil, &WireError{"count", src, fmt.Sprintf("%d bytes", len(buf))}
		}
		counts[src] = int64(binary.LittleEndian.Uint64(buf))
	}
	return counts, nil
}
