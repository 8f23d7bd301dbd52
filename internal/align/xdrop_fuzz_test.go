package align

import (
	"testing"

	"gnbody/internal/seq"
)

// maxFuzzSeq is the longest sequence the X-drop fuzz targets align: three
// profile chunks, so the row loop's returns at both chunk edges are in
// reach. The engine minimizes each new input in time quadratic in its
// length, each try an alignment; at 2 112 bases one minimization held both
// workers at 0 execs a second. Longer inputs are skipped, not cut, so no
// input is a slow copy of a shorter one; TestXDropDiffLongSeeds keeps the
// long seeds, TestRowLoopCallBoundaries the row cap.
const maxFuzzSeq = 3 * profChunk

// fuzzSeq builds a sequence from arbitrary fuzz bytes (2 bits per byte, so
// any input is valid — the fuzzer explores structure, not the alphabet
// validator).
func fuzzSeq(data []byte) seq.Seq {
	s := make(seq.Seq, len(data))
	for i, b := range data {
		s[i] = seq.Base(b & 3)
	}
	return s
}

// FuzzXDrop checks the X-drop kernel's invariants on arbitrary sequence
// pairs: no panics, extension score never negative (the empty extension
// scores 0), extents within bounds, and SeedExtend regions well-formed and
// containing the seed.
func FuzzXDrop(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x03"), []byte("\x00\x01\x02\x03"), 0, 0, 4, 15)
	f.Add([]byte("\x00\x00\x00\x00\x01\x01"), []byte("\x01\x01\x00\x00"), 2, 2, 2, 3)
	f.Add([]byte(""), []byte(""), 0, 0, 1, 0)
	f.Fuzz(func(t *testing.T, ab, bb []byte, posA, posB, k, x int) {
		if len(ab) > maxFuzzSeq || len(bb) > maxFuzzSeq {
			return
		}
		a, b := fuzzSeq(ab), fuzzSeq(bb)
		sc := DefaultScoring()
		if x < -1000 || x > 1000 {
			x %= 1000
		}

		ext := ExtendRight(a, b, sc, x)
		if ext.Score < 0 {
			t.Fatalf("ExtendRight score %d < 0", ext.Score)
		}
		if ext.AExt < 0 || ext.AExt > len(a) || ext.BExt < 0 || ext.BExt > len(b) {
			t.Fatalf("ExtendRight extents (%d,%d) out of bounds (%d,%d)", ext.AExt, ext.BExt, len(a), len(b))
		}
		if ext.Cells < 0 {
			t.Fatalf("negative cell count %d", ext.Cells)
		}

		res, err := SeedExtend(a, b, posA, posB, k, sc, x)
		if err != nil {
			return // out-of-range seed, rejected by design
		}
		if res.AStart < 0 || res.AStart > res.AEnd || res.AEnd > len(a) {
			t.Fatalf("A region [%d,%d) out of bounds (len %d)", res.AStart, res.AEnd, len(a))
		}
		if res.BStart < 0 || res.BStart > res.BEnd || res.BEnd > len(b) {
			t.Fatalf("B region [%d,%d) out of bounds (len %d)", res.BStart, res.BEnd, len(b))
		}
		// The aligned region must contain the seed.
		if res.AStart > posA || res.AEnd < posA+k || res.BStart > posB || res.BEnd < posB+k {
			t.Fatalf("region A[%d,%d) B[%d,%d) does not contain seed (%d,%d)+%d",
				res.AStart, res.AEnd, res.BStart, res.BEnd, posA, posB, k)
		}
		if res.Cells < 0 {
			t.Fatalf("negative cell count %d", res.Cells)
		}
	})
}
