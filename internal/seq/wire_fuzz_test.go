package seq

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: DecodeWireAll never panics and never fabricates reads from
// random garbage — it either errors or returns reads that re-encode to a
// prefix of the input.
func TestDecodeWireAllRobust(t *testing.T) {
	f := func(raw []byte) bool {
		reads, err := DecodeWireAll(raw)
		if err != nil {
			return true
		}
		var buf []byte
		for i := range reads {
			buf = AppendWire(buf, &reads[i])
		}
		if len(buf) != len(raw) {
			return false
		}
		for i := range buf {
			if buf[i] != raw[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Truncating a valid stream at every possible byte offset must either
// decode a prefix of the reads or error — never panic, never corrupt.
func TestDecodeWireAllTruncations(t *testing.T) {
	kernels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(8))
		var buf []byte
		for i := 0; i < 10; i++ {
			r := Read{ID: ReadID(i), Seq: randSeq(rng, rng.Intn(50), true)}
			buf = AppendWire(buf, &r)
		}
		for cut := 0; cut <= len(buf); cut++ {
			reads, err := DecodeWireAll(buf[:cut])
			if err != nil {
				continue
			}
			for j := range reads {
				if reads[j].ID != ReadID(j) {
					t.Fatalf("cut %d: read %d has ID %d", cut, j, reads[j].ID)
				}
			}
		}
	})
}
