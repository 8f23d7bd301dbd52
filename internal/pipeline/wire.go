package pipeline

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"gnbody/internal/overlap"
	"gnbody/internal/seq"
)

// layout is the bit width of every field of discover's records, a pure
// function of the plan (k, the read count, the longest read, the windows a
// rank scans on average), so every rank derives the same one. A record is
// its fields packed low bits first, written little-endian in the fewest
// whole bytes; a bit set above the fields is a bad record.
//
//	census      slot T
//	occurrence  code 2k, then read, pos<<1|rc
//	task        posA, posB<<1|rc, then A, B
//	candidate   code 2k, then a task
//
// slot is T = bits.Len(occSlots · windows / p), the index width of the
// owner's count table; read is bits.Len(reads-1) and pos
// bits.Len(longest-k)+1, the strand bit included; posA, always on the
// forward strand, takes pos-1. Each record but the census is a head of 1
// to 63 bits and a rest of at most 64 above it (join), so an occurrence
// or a task is two words and a candidate three. The keep bitmap that
// answers a census frame is one bit a census record, in its order, low
// bits first, in ceil(n/8) bytes.
type layout struct {
	k         int
	read, pos uint // bits of a read index and of pos<<1|rc
	slot      uint // T, bits of a census record
	census    int  // bytes of a census record (at least one),
	occ       int  // of an occurrence record,
	task      int  // of a task record,
	cand      int  // and of a candidate record
}

// wordPad is how many bytes a record's decoder loads from its start (three
// 8-byte words), and how much headroom its encoder stores into.
const wordPad = 24

func newLayout(k, reads, longest int, slot uint) layout {
	l := layout{k: k, read: uint(bits.Len(uint(max(reads-1, 0)))), pos: uint(bits.Len(uint(max(longest-k, 0)))) + 1, slot: slot}
	l.census = max(bytesOf(slot), 1)
	l.occ = bytesOf(l.code() + l.read + l.pos)
	l.task = bytesOf(l.taskBits())
	l.cand = bytesOf(l.code() + l.taskBits())
	return l
}

// layout is the plan's record layout on p ranks.
func (pl *Plan) layout(p int) layout {
	longest, windows := int32(0), 0
	for _, n := range pl.Lens {
		longest = max(longest, n)
		windows += max(int(n)-pl.K+1, 0)
	}
	return newLayout(pl.K, len(pl.Lens), int(longest), uint(bits.Len(uint(occSlots*windows/p))))
}

func bytesOf(width uint) int { return int(width+7) / 8 }

func (l *layout) code() uint     { return 2 * uint(l.k) }
func (l *layout) taskBits() uint { return 2*l.read + 2*l.pos - 1 }

// low is a mask of the low w bits, w < 64.
func low(w uint) uint64 { return ^(^uint64(0) << (w & 63)) }

// join packs a head of s bits, 1 to 63, and the rest above it into two
// words; split is its inverse, the rest being the 64 bits above the head.
func join(head, rest uint64, s uint) (lo, hi uint64) {
	return head | rest<<(s&63), rest >> ((64 - s) & 63)
}

func split(lo, hi uint64, s uint) (head, rest uint64) {
	return lo & low(s), lo>>(s&63) | hi<<((64-s)&63)
}

// load returns the first two words of the record b starts; b holds at least
// wordPad bytes (segments).
func load(b []byte) (lo, hi uint64) {
	return binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:16])
}

// occFields is what coding an occurrence takes of the layout, taken once a
// round so that it sits in registers.
type occFields struct {
	c, r      uint   // 2k, and the read width
	read, pos uint64 // the read and pos<<1|rc masks
}

func (l *layout) occFields() occFields { return occFields{l.code(), l.read, low(l.read), low(l.pos)} }

// put packs an occurrence into its first two words.
func (f occFields) put(code uint64, read, posRC uint32) (lo, hi uint64) {
	return join(code, uint64(read)|uint64(posRC)<<(f.r&63), f.c)
}

// get unpacks the occurrence whose first two words are lo, hi.
func (f occFields) get(lo, hi uint64) occRec {
	code, rest := split(lo, hi, f.c)
	return occRec{code, uint32(rest & f.read), uint32(rest >> (f.r & 63) & f.pos)}
}

// taskWords packs a task into two words.
func (l *layout) taskWords(t overlap.Task) (lo, hi uint64) {
	posRC := uint64(t.Seed.PosB) << 1
	if t.Seed.RC {
		posRC |= 1
	}
	return join(uint64(t.Seed.PosA)|posRC<<((l.pos-1)&63), uint64(t.A)|uint64(t.B)<<(l.read&63), 2*l.pos-1)
}

// getTask unpacks the task whose first two words are lo, hi and reports
// whether it is one discovery can emit: A < B, both seed windows inside
// their reads.
func (l *layout) getTask(lo, hi uint64, lens []int32) (overlap.Task, bool) {
	pos, ab := split(lo, hi, 2*l.pos-1)
	posRC := pos >> ((l.pos - 1) & 63)
	t := overlap.Task{
		A:    seq.ReadID(ab & low(l.read)),
		B:    seq.ReadID(ab >> (l.read & 63) & low(l.read)),
		Seed: overlap.Seed{PosA: int32(pos & low(l.pos-1)), PosB: int32(posRC >> 1), K: int16(l.k), RC: posRC&1 == 1},
	}
	return t, t.A < t.B && int(t.B) < len(lens) &&
		int(t.Seed.PosA)+l.k <= int(lens[t.A]) && int(t.Seed.PosB)+l.k <= int(lens[t.B])
}

// putTask appends t's task record to buf.
func (l *layout) putTask(buf []byte, t overlap.Task) []byte {
	lo, hi := l.taskWords(t)
	return appendRec(buf, l.task, lo, hi, 0)
}

// putCand appends the candidate (code, t) to buf: the code, then the task's
// two words from bit 2k on.
func (l *layout) putCand(buf []byte, code uint64, t overlap.Task) []byte {
	lo, hi := l.taskWords(t)
	w0, carry := join(code, lo, l.code())
	w1, w2 := join(carry, hi, l.code())
	return appendRec(buf, l.cand, w0, w1, w2)
}

// appendRec appends a size-byte record given as its little-endian words,
// with one 8-byte store each into headroom past buf's length: wordPad
// bytes, grown when short. The bytes past size stay in that headroom, and
// the next record overwrites them.
func appendRec(buf []byte, size int, w0, w1, w2 uint64) []byte {
	n := len(buf)
	if cap(buf)-n < wordPad {
		buf = append(buf, make([]byte, wordPad)...)[:n]
	}
	w := (*[wordPad]byte)(buf[n:cap(buf)])
	binary.LittleEndian.PutUint64(w[:8], w0)
	binary.LittleEndian.PutUint64(w[8:16], w1)
	binary.LittleEndian.PutUint64(w[16:], w2)
	return buf[:n+size]
}

// WireError reports a discover frame from a peer that cannot be used: a
// ragged length, a record that no scan of the plan's reads produces or that
// is addressed to another rank, a keep bitmap or kept-record frame that
// does not answer the census it belongs to, or a cost row that no
// placement produces.
type WireError struct {
	Record string // "census", "bitmap", "occurrence", "candidate", "task" or "cost"
	From   int    // the sending rank
	Reason string
}

func (e *WireError) Error() string {
	return fmt.Sprintf("pipeline: %s list from rank %d: %s", e.Record, e.From, e.Reason)
}

// padTop is the first padding bit of a size-byte, width-bit record's last
// byte: the byte shifted right by it must be 0.
func padTop(size int, width uint) uint { return width - 8*uint(size-1) }

// ragged reports a frame from rank from that is not whole records.
func ragged(record string, from int, buf []byte, size int) error {
	if len(buf)%size == 0 {
		return nil
	}
	return &WireError{record, from, fmt.Sprintf("ragged: %d bytes, %d per record", len(buf), size)}
}

// badRecord reports a record from rank from that no scan produces.
func badRecord(record string, from int, rec []byte) error {
	return &WireError{record, from, fmt.Sprintf("bad record % x", rec)}
}

// segments splits a frame of size-byte records in two: the records that
// start at least wordPad bytes before its end, and a copy in tail of the
// rest, whose capacity covers their loads. A loop over both takes each
// record's wordPad bytes as seg[:wordPad], with no short path.
func segments(buf []byte, size int, tail *[2 * wordPad]byte) [2][]byte {
	cut := 0
	if len(buf) >= wordPad {
		cut = ((len(buf)-wordPad)/size + 1) * size
	}
	return [2][]byte{buf[:cut], tail[:copy(tail[:], buf[cut:])]}
}

// decodeFrames decodes each size-byte, width-bit record of each rank's
// frame, in rank order, with rec, which gets wordPad bytes from the
// record's start (segments). A frame that is not whole records, a record
// with a bit set at or above width, or one rec rejects is a *WireError
// naming the rank that sent it.
func decodeFrames[T any](record string, frames [][]byte, size int, width uint, rec func([]byte) (T, bool)) ([]T, error) {
	n := 0
	for _, buf := range frames {
		n += len(buf) / size
	}
	out := make([]T, 0, n)
	top := padTop(size, width)
	var tail [2 * wordPad]byte
	for from, buf := range frames {
		if err := ragged(record, from, buf, size); err != nil {
			return nil, err
		}
		for _, seg := range segments(buf, size, &tail) {
			for ; len(seg) > 0; seg = seg[size:] {
				b := seg[:wordPad]
				v, ok := rec(b)
				if b[size-1]>>top != 0 || !ok {
					return nil, badRecord(record, from, b[:size])
				}
				out = append(out, v)
			}
		}
	}
	return out, nil
}

// decodeCands decodes a round of candidate frames sent to rank me of p: a
// candidate whose pair hashes to another rank is a bad record.
func (l *layout) decodeCands(frames [][]byte, lens []int32, me, p int) ([]candRec, error) {
	return decodeFrames("candidate", frames, l.cand, l.code()+l.taskBits(), func(b []byte) (candRec, bool) {
		w0, w1 := load(b)
		code, lo := split(w0, w1, l.code())
		_, hi := split(w1, binary.LittleEndian.Uint64(b[16:]), l.code())
		t, ok := l.getTask(lo, hi, lens)
		return candRec{code, t}, ok && hashOwner(t.Key(), p) == me
	})
}

// decodeTasks decodes a round of redistributed task frames sent to the rank
// that owns reads [lo, hi): a task with neither read in it is a bad record.
func (l *layout) decodeTasks(frames [][]byte, lens []int32, lo, hi int) ([]overlap.Task, error) {
	return decodeFrames("task", frames, l.task, l.taskBits(), func(b []byte) (overlap.Task, bool) {
		w0, w1 := load(b)
		t, ok := l.getTask(w0, w1, lens)
		return t, ok && (lo <= int(t.A) && int(t.A) < hi || lo <= int(t.B) && int(t.B) < hi)
	})
}

// censusSlot is the slot of census record i of buf, which holds it whole.
func (l *layout) censusSlot(buf []byte, i int) uint64 {
	var w [8]byte
	copy(w[:], buf[i*l.census:(i+1)*l.census])
	return binary.LittleEndian.Uint64(w[:])
}

// checkBitmap vets the keep bitmap rank from sent in answer to n census
// records: ceil(n/8) bytes with no bit set past the nth. A bad one is a
// *WireError naming that rank; the sender then answers it with a refusal.
func checkBitmap(from int, bm []byte, n int) error {
	want := (n + 7) / 8
	if len(bm) == want && (n%8 == 0 || bm[want-1]>>(n%8) == 0) {
		return nil
	}
	return &WireError{"bitmap", from, fmt.Sprintf("%d bytes answering %d census records", len(bm), n)}
}

// refusal is the kept-record frame that answers a keep bitmap its sender
// refused: two all-zero occurrences, which no scan sends (its records
// strictly ascend), so that the owner (keptOccs) blames itself for the
// fault, not the sender for a frame that answers nothing it sent.
func (l *layout) refusal() []byte { return make([]byte, 2*l.occ) }

// refused reports whether buf is a refusal.
func (l *layout) refused(buf []byte) bool {
	if len(buf) != 2*l.occ {
		return false
	}
	for _, b := range buf {
		if b != 0 {
			return false
		}
	}
	return true
}

// putCosts encodes a rank's line of the cost allgather: 8-byte words, its
// estimated kernel cost, then per rank s the cost of its tasks that may
// move to s in two parts, the moves that free one of its fetches
// (row[1+s]) and the rest (row[1+p+s]).
func putCosts(row []int64) []byte {
	buf := make([]byte, 0, 8*len(row))
	for _, v := range row {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return buf
}

// decodeCosts decodes the cost allgather of p ranks into each rank's cost
// and its free and rest rows. A row of another length, a word past
// MaxInt64/p (so that no sum over the ranks overflows), a movable cost
// toward the sender itself, or movable costs summing past the sender's own
// cost is a *WireError naming the sender.
func decodeCosts(frames [][]byte) (cost []int64, free, rest [][]int64, err error) {
	p := len(frames)
	cost, free, rest = make([]int64, p), make([][]int64, p), make([][]int64, p)
	for from, buf := range frames {
		if len(buf) != 8*(1+2*p) {
			return nil, nil, nil, &WireError{"cost", from, fmt.Sprintf("%d bytes, want %d", len(buf), 8*(1+2*p))}
		}
		row, movable := make([]int64, 1+2*p), uint64(0)
		for i := range row {
			w := binary.LittleEndian.Uint64(buf[8*i:])
			if w > math.MaxInt64/uint64(p) {
				return nil, nil, nil, &WireError{"cost", from, fmt.Sprintf("word %d is %d", i, w)}
			}
			row[i] = int64(w)
			if i > 0 {
				movable += w
			}
		}
		if row[1+from] != 0 || row[1+p+from] != 0 || movable > uint64(row[0]) {
			return nil, nil, nil, &WireError{"cost", from, fmt.Sprintf("%d movable, %d toward itself, of %d", movable, row[1+from]+row[1+p+from], row[0])}
		}
		cost[from], free[from], rest[from] = row[0], row[1:1+p], row[1+p:]
	}
	return cost, free, rest, nil
}
