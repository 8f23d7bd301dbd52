package seq

import (
	"bytes"
	"slices"
	"testing"
)

// decodeBoth runs decodeBases under each kernel this CPU has on src and
// fails unless every kernel returns what the table loop returns and
// writes the same codes up to the first bad byte and nothing past
// len(src): dst carries guard bytes there.
func decodeBoth(t *testing.T, src []byte) {
	t.Helper()
	want := make(Seq, len(src))
	wantBad := decodeTable(want, src)
	if wantBad >= 0 {
		want = want[:wantBad]
	}
	eachKernel(func() {
		const guard = Base(0xA5)
		dst := make(Seq, len(src)+40)
		for i := range dst {
			dst[i] = guard
		}
		if bad := decodeBases(dst[:len(src)], src); bad != wantBad {
			t.Fatalf("avx2 %v, % x: first bad byte %d, table says %d", useAVX2, src, bad, wantBad)
		}
		if !slices.Equal(dst[:len(want)], want) {
			t.Fatalf("avx2 %v, % x: codes %v, table %v", useAVX2, src, dst[:len(want)], want)
		}
		for i := len(src); i < len(dst); i++ {
			if dst[i] != guard {
				t.Fatalf("avx2 %v, % x: wrote byte %d of a %d-byte line", useAVX2, src, i, len(src))
			}
		}
	})
}

// TestDecodeBasesEveryByte puts each of the 256 byte values at each
// position of valid lines of 31 to 97 letters, which covers the first
// block, the inner ones and the overlapping last one.
func TestDecodeBasesEveryByte(t *testing.T) {
	letters := []byte("ACGTNUacgtnu")
	for _, n := range []int{31, 32, 33, 63, 64, 65, 97} {
		line := make([]byte, n)
		for i := range line {
			line[i] = letters[i%len(letters)]
		}
		decodeBoth(t, line)
		for p := 0; p < n; p++ {
			for c := 0; c < 256; c++ {
				src := append([]byte(nil), line...)
				src[p] = byte(c)
				decodeBoth(t, src)
			}
		}
	}
}

func TestCheckBasesLongLine(t *testing.T) {
	line := bytes.Repeat([]byte("acgtN"), 3000)
	if i := checkBases(make(Seq, 4096), line); i != -1 {
		t.Fatalf("valid line: bad byte at %d", i)
	}
	for _, p := range []int{0, 4095, 4096, 9000, len(line) - 1} {
		src := append([]byte(nil), line...)
		src[p] = 'x'
		if i := checkBases(make(Seq, 4096), src); i != p {
			t.Errorf("bad byte at %d found at %d", p, i)
		}
	}
}

// basesDiffSeeds are FuzzBasesDiff's seeds. TestBasesDiffSeeds sweeps
// every window of each, so the 120-byte one, over the fuzz cap, still
// counts.
var basesDiffSeeds = [][]byte{
	[]byte("ACGTNUacgtnuACGTNUacgtnuACGTNUacgtnuACGTNUacgtnu"),
	bytes.Repeat([]byte{0x41, 0x61, 0xC1, 0xE1, 0x01, 0x21}, 20),
	[]byte(">r1 x\r\nACGT\xc2\x85\n"),
}

// rawAndMapped returns raw and a copy with every byte below 0xF0 mapped
// into the alphabet, so both bad bytes and long valid runs are met.
func rawAndMapped(raw []byte) [][]byte {
	letters := []byte("ACGTNUacgtnu")
	mapped := make([]byte, len(raw))
	for i, c := range raw {
		mapped[i] = c
		if c < 0xF0 {
			mapped[i] = letters[int(c)%len(letters)]
		}
	}
	return [][]byte{raw, mapped}
}

// TestBasesDiffSeeds decodes every window of each seed, raw and mapped,
// at every length 0-96 from every start offset.
func TestBasesDiffSeeds(t *testing.T) {
	for _, seed := range basesDiffSeeds {
		for _, src := range rawAndMapped(seed) {
			for off := 0; off <= len(src); off++ {
				for n := 0; n <= 96 && off+n <= len(src); n++ {
					decodeBoth(t, src[off:off+n])
				}
			}
		}
	}
}

// maxFuzzLine caps FuzzBasesDiff's input at the longest line
// TestDecodeBasesEveryByte sweeps: three AVX2 blocks and one byte. The
// engine minimizes a new input in time quadratic in its length, so longer
// inputs stalled the run at 0 execs/s.
const maxFuzzLine = 97

// FuzzBasesDiff checks the AVX2 decoder against the table loop on
// arbitrary bytes, and on the same bytes mapped mostly into the alphabet:
// every prefix and every suffix of the input, so each length and each
// position of the last block is met, with the same first bad byte, the
// same codes before it, and no byte written past the line.
func FuzzBasesDiff(f *testing.F) {
	for _, seed := range basesDiffSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > maxFuzzLine {
			return
		}
		for _, src := range rawAndMapped(raw) {
			for n := 0; n <= len(src); n++ {
				decodeBoth(t, src[:n])
				decodeBoth(t, src[len(src)-n:])
			}
		}
	})
}
