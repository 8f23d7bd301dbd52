package pipeline

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gnbody/internal/kmer"
	"gnbody/internal/overlap"
	"gnbody/internal/seq"
)

// The layout's codec over random plans — k 1 to 31, 1 to 2^17 reads, the
// longest read up to 2^31-1 bases, census slots of 0 to 20 bits — holds
// four properties for all four records: encode then decode is the
// identity; a padding bit set is a *WireError naming the sender; so is a
// ragged frame; and a frame of one record, shorter than a word and with no
// byte of capacity past it, decodes. The plans cover occurrences of under,
// exactly and over 64 bits and candidates over 128. A keep bitmap that is
// not one bit a census record, or has a bit set past the last, is refused;
// so is a frame of kept occurrences with a record more or less than its
// bitmap keeps, or one whose slot is not that of the census record it
// answers.
func TestLayoutCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const from = 1
	var occ64, occWide, candWide, short bool
	// Three plans pinned (an occurrence of exactly 64 bits; one of 111 with a
	// 159-bit candidate; one of 19), then random ones.
	plans := [][3]int{{17, 1024, 300000}, {31, 1 << 17, math.MaxInt32}, {5, 5, 30}}
	for trial := 0; trial < 400; trial++ {
		if trial >= len(plans) {
			k := 1 + rng.Intn(kmer.MaxK)
			plans = append(plans, [3]int{k, 2 + rng.Intn(1<<rng.Intn(18)), min(k+rng.Intn(1<<rng.Intn(32)), math.MaxInt32)})
		}
		k, longest := plans[trial][0], plans[trial][2]
		lens := make([]int32, plans[trial][1])
		for i := range lens {
			lens[i] = int32(longest - rng.Intn(longest-k+1))
		}
		lens[rng.Intn(len(lens))] = int32(longest)
		l := newLayout(k, len(lens), longest, uint(rng.Intn(21)))
		occBits, candBits := l.code()+l.read+l.pos, l.code()+l.taskBits()
		occ64, occWide, candWide = occ64 || occBits == 64, occWide || occBits > 64, candWide || candBits > 128
		short = short || l.occ < 8
		label := fmt.Sprintf("k=%d, %d reads, longest %d, T=%d (%d/%d/%d/%d bytes)", k, len(lens), longest, l.slot, l.census, l.occ, l.task, l.cand)

		// Valid records: occurrences in strictly ascending (read, pos) order,
		// with codes rank 0 of 2 owns; tasks and candidates with A < B, every
		// window inside its read.
		pos := func(read int) int32 { return int32(rng.Intn(int(lens[read]) - k + 1)) }
		var occs []occRec
		for read := 0; read < len(lens) && len(occs) < 20; read += 1 + rng.Intn(len(lens)/8+1) {
			p := uint32(pos(read))
			occs = append(occs, occRec{ownedCode(rng, k, 0, 2), uint32(read), p<<1 | uint32(rng.Intn(2))})
			if q := uint32(pos(read)); q > p { // a second window of the same read, further on
				occs = append(occs, occRec{ownedCode(rng, k, 0, 2), uint32(read), q << 1})
			}
		}
		var cands []candRec
		for len(cands) < 20 {
			a, b := rng.Intn(len(lens)), rng.Intn(len(lens))
			if a >= b {
				continue
			}
			cands = append(cands, candRec{rng.Uint64() & low(l.code()), overlap.Task{A: seq.ReadID(a), B: seq.ReadID(b),
				Seed: overlap.Seed{PosA: pos(a), PosB: pos(b), K: int16(k), RC: rng.Intn(2) == 1}}})
		}

		// The frames: occurrences split over rank 0 and the sender, so the
		// order check runs across frames, each with the census it answers
		// and a bitmap that keeps all of it; tasks and candidates all from
		// the sender.
		cut := rng.Intn(len(occs) + 1)
		if cut == len(occs) { // the sender must hold a record to forge
			cut = 0
		}
		occFrames := [][]byte{occFrame(&l, occs[:cut]...), occFrame(&l, occs[cut:]...)}
		census := [][]byte{censusFrame(&l, occs[:cut]...), censusFrame(&l, occs[cut:]...)}
		keep := [][]byte{allKept(cut), allKept(len(occs) - cut)}
		var taskFrame, candFrame []byte
		for _, c := range cands {
			taskFrame = l.putTask(taskFrame, c.task)
			candFrame = l.putCand(candFrame, c.code, c.task)
		}

		for i, o := range occs[cut:] {
			if s := l.censusSlot(census[1], i); s != splitmix(o.code)>>(64-l.slot) {
				t.Fatalf("%s: census record %d decodes to slot %d", label, i, s)
			}
		}
		kept, err := keptOccs(nil, occFrames, census, keep, lens, &l, 0)
		if err != nil || fmt.Sprint(kept) != fmt.Sprint(occs) {
			t.Fatalf("%s: occurrences decode to %v, %v; want %v", label, kept, err, occs)
		}
		gotCands, err := l.decodeCands(nil, [][]byte{nil, candFrame}, lens, 0, 1)
		if err != nil || fmt.Sprint(gotCands) != fmt.Sprint(cands) {
			t.Fatalf("%s: candidates decode to %v, %v", label, gotCands, err)
		}
		gotTasks, err := l.decodeTasks(nil, [][]byte{nil, taskFrame}, lens, 0, len(lens))
		for i := range gotTasks {
			if gotTasks[i] != cands[i].task {
				t.Fatalf("%s: task %d decodes to %+v, want %+v", label, i, gotTasks[i], cands[i].task)
			}
		}
		if err != nil || len(gotTasks) != len(cands) {
			t.Fatalf("%s: %d tasks decode to %d, %v", label, len(cands), len(gotTasks), err)
		}

		// Each forged frame comes from rank from; a decoder that accepts it
		// fails the test. The occurrence decoder is handed the census and
		// bitmap the frame's own records would have.
		decoders := []struct {
			record string
			frame  []byte
			size   int
			bits   uint
			decode func(frame []byte) error
		}{
			{"census", census[1], l.census, l.slot, func(frame []byte) error {
				_, _, err := new(scratch).keepBitmaps([][]byte{nil, frame}, &l)
				return err
			}},
			{"occurrence", occFrames[1], l.occ, occBits, func(frame []byte) error {
				var recs []occRec
				for b := frame; len(b) >= l.occ; b = b[l.occ:] {
					var rec [wordPad]byte
					copy(rec[:], b[:l.occ])
					recs = append(recs, l.occFields().get(load(rec[:])))
				}
				_, err := keptOccs(nil, [][]byte{occFrames[0], frame}, [][]byte{census[0], censusFrame(&l, recs...)},
					[][]byte{keep[0], allKept(len(recs))}, lens, &l, 0)
				return err
			}},
			{"candidate", candFrame, l.cand, candBits, func(frame []byte) error {
				_, err := l.decodeCands(nil, [][]byte{nil, frame}, lens, 0, 1)
				return err
			}},
			{"task", taskFrame, l.task, l.taskBits(), func(frame []byte) error {
				_, err := l.decodeTasks(nil, [][]byte{nil, frame}, lens, 0, len(lens))
				return err
			}},
		}
		for _, d := range decoders {
			refused := func(what string, frame []byte) {
				if err := d.decode(frame); !isWireError(err, d.record, from) {
					t.Fatalf("%s: %s %s: got %v, want a WireError for the %s from rank %d", label, d.record, what, err, d.record, from)
				}
			}
			if d.size > 1 { // a frame of 1-byte records is never ragged
				refused("frame one byte short", d.frame[:len(d.frame)-1])
			}
			if pad := uint(8*d.size) - d.bits; pad > 0 {
				for range 3 { // a padding bit of some record
					bad := append([]byte(nil), d.frame...)
					bad[(1+rng.Intn(len(bad)/d.size))*d.size-1] |= 0x80 >> rng.Intn(int(pad))
					refused("padding bit", bad)
				}
			}
			// The frame's last record alone, in a slice with no capacity past it.
			last := append([]byte(nil), d.frame[len(d.frame)-d.size:]...)
			if err := d.decode(last[:len(last):len(last)]); err != nil {
				t.Fatalf("%s: %s alone: %v", label, d.record, err)
			}
		}

		// A kept-occurrence frame must answer its census: a record fewer or
		// more than the bitmap keeps, or one whose slot is not that of the
		// census record it answers, is refused.
		n := len(occs) - cut
		refusedOcc := func(what string, census1, keep1 []byte) {
			_, err := keptOccs(nil, occFrames, [][]byte{census[0], census1}, [][]byte{keep[0], keep1}, lens, &l, 0)
			if !isWireError(err, "occurrence", from) {
				t.Fatalf("%s: %s: got %v, want an occurrence WireError from rank %d", label, what, err, from)
			}
		}
		fewer := append([]byte(nil), keep[1]...)
		fewer[(n-1)>>3] &^= 1 << ((n - 1) & 7)
		refusedOcc("a bit unset", census[1], fewer)
		more := append(append([]byte(nil), census[1]...), census[1][:l.census]...)
		refusedOcc("a bit more", more, allKept(n+1))
		if l.slot > 0 {
			moved := append([]byte(nil), census[1]...)
			at := rng.Intn(n) * l.census
			moved[at] ^= 1 // the record's slot is now another
			refusedOcc("a census slot moved", moved, keep[1])
		}

		// A keep bitmap is one bit a census record: ceil(n/8) bytes and no
		// bit past the nth.
		bad := [][]byte{keep[1][:len(keep[1])-1], append(append([]byte(nil), keep[1]...), 0)}
		if n%8 != 0 {
			bad = append(bad, append([]byte(nil), keep[1]...))
			bad[2][len(keep[1])-1] |= 0x80
		}
		for _, bm := range bad {
			if err := checkBitmap(from, bm, n); !isWireError(err, "bitmap", from) {
				t.Fatalf("%s: bitmap % x for %d records: %v", label, bm, n, err)
			}
		}
		if err := checkBitmap(from, keep[1], n); err != nil {
			t.Fatalf("%s: the bitmap for %d records refused: %v", label, n, err)
		}
		// A refusal from rank 1 is a fault of the keep bitmap rank 0 sent
		// it: a *WireError naming rank 0.
		if _, err := keptOccs(nil, [][]byte{occFrames[0], l.refusal()}, census, keep, lens, &l, 0); !isWireError(err, "bitmap", 0) {
			t.Fatalf("%s: a refusal: %v", label, err)
		}
	}
	if !occ64 || !occWide || !candWide || !short {
		t.Errorf("plans lost a case: 64-bit occurrence %v, wider %v, candidate over 128 bits %v, occurrence under a word %v",
			occ64, occWide, candWide, short)
	}
}

// allKept is a keep bitmap that keeps all of n census records.
func allKept(n int) []byte {
	bm := make([]byte, (n+7)/8)
	for i := range n {
		bm[i>>3] |= 1 << (i & 7)
	}
	return bm
}

func isWireError(err error, record string, from int) bool {
	var we *WireError
	return errors.As(err, &we) && we.Record == record && we.From == from
}
