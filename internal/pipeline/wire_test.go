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
// longest read up to 2^31-1 bases — holds four properties for all three
// records: encode then decode is the identity; a padding bit set is a
// *WireError naming the sender; so is a ragged frame; and a frame of one
// record, shorter than a word and with no byte of capacity past it,
// decodes. The plans cover occurrences of under, exactly and over 64 bits
// and candidates over 128.
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
		l := (&Plan{Lens: lens, K: k}).layout()
		occBits, candBits := l.code()+l.read+l.pos, l.code()+l.taskBits()
		occ64, occWide, candWide = occ64 || occBits == 64, occWide || occBits > 64, candWide || candBits > 128
		short = short || l.occ < 8
		label := fmt.Sprintf("k=%d, %d reads, longest %d (%d/%d/%d bytes)", k, len(lens), longest, l.occ, l.task, l.cand)

		// Valid records: occurrences in strictly ascending (read, pos) order,
		// tasks and candidates with A < B, every window inside its read.
		pos := func(read int) int32 { return int32(rng.Intn(int(lens[read]) - k + 1)) }
		var occs []occRec
		for read := 0; read < len(lens) && len(occs) < 20; read += 1 + rng.Intn(len(lens)/8+1) {
			p := uint32(pos(read))
			occs = append(occs, occRec{rng.Uint64() & low(l.code()), uint32(read), p<<1 | uint32(rng.Intn(2))})
			if q := uint32(pos(read)); q > p { // a second window of the same read, further on
				occs = append(occs, occRec{rng.Uint64() & low(l.code()), uint32(read), q << 1})
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
		// order check runs across frames; tasks and candidates all from it.
		cut := rng.Intn(len(occs) + 1)
		occFrames := [][]byte{occFrame(&l, occs[:cut]...), occFrame(&l, occs[cut:]...)}
		var taskFrame, candFrame []byte
		for _, c := range cands {
			taskFrame = l.putTask(taskFrame, c.task)
			candFrame = l.putCand(candFrame, c.code, c.task)
		}
		if len(occFrames[1]) == 0 { // the sender must hold a record to forge
			occFrames = [][]byte{nil, occFrames[0]}
		}

		kept, _, err := repeatedOccs(occFrames, lens, &l, 0) // one slot: every record kept
		if err != nil || fmt.Sprint(kept) != fmt.Sprint(occs) {
			t.Fatalf("%s: occurrences decode to %v, %v; want %v", label, kept, err, occs)
		}
		gotCands, err := l.decodeCands([][]byte{nil, candFrame}, lens)
		if err != nil || fmt.Sprint(gotCands) != fmt.Sprint(cands) {
			t.Fatalf("%s: candidates decode to %v, %v", label, gotCands, err)
		}
		gotTasks, err := l.decodeTasks([][]byte{nil, taskFrame}, lens)
		for i := range gotTasks {
			if gotTasks[i] != cands[i].task {
				t.Fatalf("%s: task %d decodes to %+v, want %+v", label, i, gotTasks[i], cands[i].task)
			}
		}
		if err != nil || len(gotTasks) != len(cands) {
			t.Fatalf("%s: %d tasks decode to %d, %v", label, len(cands), len(gotTasks), err)
		}

		// Each forged frame comes from rank from; a decoder that accepts it
		// fails the test.
		decoders := []struct {
			record string
			frame  []byte
			size   int
			bits   uint
			decode func(frame []byte) error
		}{
			{"occurrence", occFrames[1], l.occ, occBits, func(frame []byte) error {
				_, _, err := repeatedOccs([][]byte{occFrames[0], frame}, lens, &l, occSlots)
				return err
			}},
			{"candidate", candFrame, l.cand, candBits, func(frame []byte) error {
				_, err := l.decodeCands([][]byte{nil, frame}, lens)
				return err
			}},
			{"task", taskFrame, l.task, l.taskBits(), func(frame []byte) error {
				_, err := l.decodeTasks([][]byte{nil, frame}, lens)
				return err
			}},
		}
		for _, d := range decoders {
			refused := func(what string, frame []byte) {
				var we *WireError
				if err := d.decode(frame); !errors.As(err, &we) || we.From != from || we.Record != d.record {
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
	}
	if !occ64 || !occWide || !candWide || !short {
		t.Errorf("plans lost a case: 64-bit occurrence %v, wider %v, candidate over 128 bits %v, occurrence under a word %v",
			occ64, occWide, candWide, short)
	}
}
