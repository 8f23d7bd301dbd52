// Package pipeline implements DiBELLA's stages 1-2 as a distributed SPMD
// program on the rt.Runtime interface (paper §3), as a sort over flat
// records packed at field widths the plan fixes (wire.go). A census comes
// first: each rank sends, for every k-mer instance of its own reads, only
// the T-bit count-table slot of its canonical code (3 bytes on the
// benchmark's input) to the code's hash owner in an irregular all-to-all;
// the owner counts the slots and answers each sender with one bit a census
// record, set where the slot was seen twice; the sender then sends the full
// occurrence record (7 bytes at k = 17 for up to 128 reads of up to 16 kb)
// only for the instances kept. The owner radix-sorts those by code and
// scans the runs — a run's length is the k-mer's global count, tested once
// against the reliable-frequency window, and a retained run's first
// occurrence per read turns into candidate pairs; pairs are deduplicated at
// hash owners by sorting on the pair and keeping each run's smallest-code
// seed (matching the serial reference exactly, and yielding pair order);
// finally each task is placed on the owner of one of its reads (place.go):
// one side of each rank pair's reads crosses, and a repair balances the
// kernel work the tasks are estimated to cost ("the tasks are roughly
// balanced across the processors").
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
	OccsKept       int64 // occurrence records this rank received after the census
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

// occSlots sizes the owner's count table: 2^T two-bit slots, T =
// bits.Len(occSlots · windows / p), so 16 to 32 slots (4 to 8 bytes) per
// census record a rank receives on average. The plan fixes T, because a
// sender needs it before anything is received.
const occSlots = 16

// keepBitmaps is the owner's count pass over a round of census frames. It
// counts every record's slot into a saturating 0/1/2 table of 2^T two-bit
// slots, then answers each sender with its keep bitmap: bit i set if the
// slot of the sender's census record i reached 2. singles is how many
// records that leaves unset. A census frame that is not whole records, or a
// record with a bit set at or above T, is a *WireError naming the sender;
// every bitmap then keeps nothing, but still has one bit a record received,
// so that no honest sender finds fault with it.
//
// Every instance of a code reaches its one owner with the same slot, so a
// code seen twice or more is kept whole and its run is still its global
// instance count. An unset record is alone in its slot: a distinct k-mer
// seen once, counted in singles. A singleton kept through a collision is a
// run of one, which the run scan's floor of 2 drops.
func keepBitmaps(frames [][]byte, l *layout) (bitmaps [][]byte, singles int64, err error) {
	size, mask, top := l.census, low(l.slot), padTop(l.census, l.slot)
	bitBytes := func(buf []byte) int { return ((len(buf)+size-1)/size + 7) / 8 } // a ragged tail counts as a record
	total := 0
	for _, buf := range frames {
		total += bitBytes(buf)
	}
	all := make([]byte, total)
	bitmaps = make([][]byte, len(frames))
	for from, buf := range frames {
		m := bitBytes(buf)
		bitmaps[from], all = all[:m:m], all[m:]
	}
	seen := make([]uint8, (1<<l.slot+3)/4) // four 2-bit counters a byte
	var tail [2 * wordPad]byte
	n := 0 // census records received
	for from, buf := range frames {
		if err := ragged("census", from, buf, size); err != nil {
			return bitmaps, 0, err
		}
		n += len(buf) / size
		for _, seg := range segments(buf, size, &tail) {
			for ; len(seg) > 0; seg = seg[size:] {
				h := binary.LittleEndian.Uint64(seg[:8]) & mask
				sh := h & 3 * 2
				s := seen[h>>2] >> sh & 3
				seen[h>>2] += (1 - s>>1) << sh
				if seg[size-1]>>top != 0 {
					return bitmaps, 0, badRecord("census", from, seg[:size])
				}
			}
		}
	}
	kept := 0
	for from, buf := range frames {
		bm, i, acc := bitmaps[from], 0, byte(0)
		for _, seg := range segments(buf, size, &tail) {
			for ; len(seg) > 0; seg = seg[size:] {
				h := binary.LittleEndian.Uint64(seg[:8]) & mask
				bit := seen[h>>2] >> (h & 3 * 2) >> 1 & 1
				acc |= bit << (i & 7)
				kept += int(bit)
				if i++; i&7 == 0 {
					bm[i>>3-1], acc = acc, 0
				}
			}
		}
		if i&7 != 0 {
			bm[i>>3] = acc
		}
	}
	return bitmaps, int64(n - kept), nil
}

// keptOccs decodes rank me's round of kept occurrence frames, each the
// answer to the census frame and the keep bitmap of the same sender. It
// checks every record for what the run scan relies on: no bit above the
// layout's fields, a window inside its read, and (read, pos) strictly
// ascending throughout, the ordering contract that lets a stable sort by
// code stand in for a sort by (code, read, pos): ranks own contiguous
// ascending read ranges (Partition.Range), scan them in order, keep a
// subsequence of that order, and their frames are decoded in rank order.
// And it checks that a frame answers its census: one record for each bit
// set, each with a code whose hash owner is me and whose slot is that of
// the census record it answers. A refusal (layout.refusal) is a
// *WireError naming me: its sender found fault with the keep bitmap me
// sent it, and so the stage fails and blames me alone.
func keptOccs(frames, census, bitmaps [][]byte, lens []int32, l *layout, me int) ([]occRec, error) {
	n := 0
	for _, buf := range frames {
		n += len(buf) / l.occ
	}
	kept := make([]occRec, 0, n)
	f, size, top := l.occFields(), l.occ, padTop(l.occ, l.code()+l.read+l.pos)
	p, shift := len(frames), 64-l.slot
	next := uint64(0) // the smallest (read, pos) the next record may carry
	var tail [2 * wordPad]byte
	for from, buf := range frames {
		if l.refused(buf) {
			return nil, &WireError{"bitmap", me, fmt.Sprintf("refused by rank %d", from)}
		}
		if err := ragged("occurrence", from, buf, size); err != nil {
			return nil, err
		}
		bm := bitmaps[from]
		if set := ones(bm); len(buf)/size != set {
			return nil, &WireError{"occurrence", from, fmt.Sprintf("%d records for %d kept census records", len(buf)/size, set)}
		}
		i := 0 // the census record the next occurrence answers
		for _, seg := range segments(buf, size, &tail) {
			for ; len(seg) > 0; seg = seg[size:] {
				b := seg[:wordPad]
				o := f.get(load(b))
				h := splitmix(o.code)
				for bm[i>>3]>>(i&7) == 0 {
					i = (i | 7) + 1
				}
				i += bits.TrailingZeros8(bm[i>>3] >> (i & 7))
				at := uint64(o.read)<<32 | uint64(o.posRC>>1)
				if b[size-1]>>top != 0 || int(o.read) >= len(lens) || int(o.posRC>>1)+l.k > int(lens[o.read]) || at < next ||
					owner(h, p) != me || h>>shift != l.censusSlot(census[from], i) {
					return nil, badRecord("occurrence", from, b[:size])
				}
				kept = append(kept, o)
				next, i = at+1, i+1
			}
		}
	}
	return kept, nil
}

// ones is the number of bits set in bm.
func ones(bm []byte) int {
	n := 0
	for _, b := range bm {
		n += bits.OnesCount8(b)
	}
	return n
}

// hashOwner routes a 64-bit key to a rank.
func hashOwner(key uint64, p int) int { return owner(splitmix(key), p) }

// owner is the rank of a key whose splitmix is h: h mod p, taken with a
// mask when p is a power of two, which saves a division.
func owner(h uint64, p int) int {
	if p&(p-1) == 0 {
		return int(h & uint64(p-1))
	}
	return int(h % uint64(p))
}

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
// enters every remaining round, sending what its peers can check, so that
// no peer is left waiting in a collective, and reports its errors last.
func (pl *Plan) Run(r rt.Runtime, store seq.Store) (*Output, error) {
	if pl.K <= 0 || pl.K > kmer.MaxK {
		return nil, fmt.Errorf("pipeline: k=%d out of range", pl.K)
	}
	out := &Output{}
	p, me := r.Size(), r.Rank()
	var fail error

	lay := pl.layout(p)
	lo, hi := pl.Part.Range(me)

	// --- Stage: local k-mer extraction; each instance's census slot goes
	// to the canonical code's hash owner. ---
	sendCen := make([][]byte, p)
	r.Timed(rt.CatOverhead, func() {
		bases := 0
		for _, l := range pl.Lens[lo:hi] {
			bases += int(l)
		}
		for dst := range sendCen { // an even share plus an eighth: growth is the exception
			sendCen[dst] = make([]byte, 0, lay.census*(bases/p+bases/(8*p)+8)+wordPad)
		}
		shift := 64 - lay.slot
		for i := lo; i < hi; i++ {
			fail = errors.Join(fail, kmer.Scan(store.Get(seq.ReadID(i)), pl.K, func(_ int, c kmer.Code, _ bool) {
				out.KmersExtracted++
				h := splitmix(uint64(c))
				dst := owner(h, p)
				sendCen[dst] = appendRec(sendCen[dst], lay.census, h>>shift, 0, 0)
			}))
		}
	})
	recvCen := r.Alltoallv(sendCen)

	// --- Stage: count the census, answer each sender with its keep bitmap. ---
	var keep [][]byte
	var singles int64
	r.Timed(rt.CatOverhead, func() {
		var err error
		keep, singles, err = keepBitmaps(recvCen, &lay)
		fail = errors.Join(fail, err)
	})
	answers := r.Alltoallv(keep)

	// --- Stage: the occurrence record of every kept instance, to the same
	// owner. A rescan of the reads gives the census order back. ---
	sendOcc := make([][]byte, p)
	r.Timed(rt.CatOverhead, func() {
		occ := lay.occFields()
		next := make([]int, p) // per owner, the census record the next instance answers
		for dst, bm := range answers {
			n := len(sendCen[dst]) / lay.census
			if err := checkBitmap(dst, bm, n); err != nil {
				// Keep nothing for dst, and tell it so: dst, not this
				// rank, sent what cannot be read.
				fail = errors.Join(fail, err)
				answers[dst], sendOcc[dst] = make([]byte, (n+7)/8), lay.refusal()
				continue
			}
			sendOcc[dst] = make([]byte, 0, lay.occ*ones(bm)+wordPad)
		}
		for i := lo; i < hi; i++ {
			fail = errors.Join(fail, kmer.Scan(store.Get(seq.ReadID(i)), pl.K, func(pos int, c kmer.Code, rc bool) {
				posRC := uint32(pos) << 1
				if rc {
					posRC |= 1
				}
				dst := hashOwner(uint64(c), p)
				j := next[dst]
				next[dst] = j + 1
				if answers[dst][j>>3]>>(j&7)&1 != 0 {
					w0, w1 := occ.put(uint64(c), uint32(i), posRC)
					sendOcc[dst] = appendRec(sendOcc[dst], lay.occ, w0, w1, 0)
				}
			}))
		}
	})
	recvOcc := r.Alltoallv(sendOcc)

	// --- Stage: sort the kept records by code, scan the runs. ---
	sendTask := make([][]byte, p)
	r.Timed(rt.CatOverhead, func() {
		recs, err := keptOccs(recvOcc, recvCen, keep, pl.Lens, &lay, me)
		if fail = errors.Join(fail, err); fail != nil {
			return
		}
		out.KmersOwned += singles
		out.OccsKept = int64(len(recs))
		pl.scanRuns(sortByCode(recs, make([]occRec, len(recs)), 2*pl.K), &lay, sendTask, out)
	})
	recvTask := r.Alltoallv(sendTask)

	// --- Stage: pair dedup (min-code seed wins, as in the serial path). ---
	var deduped []overlap.Task
	r.Timed(rt.CatOverhead, func() {
		cands, err := lay.decodeCands(recvTask, pl.Lens, me, p)
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

	// --- Stage: task placement on read owners, cost-balanced. ---
	tasks, err := place(r, pl, &lay, deduped)
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
