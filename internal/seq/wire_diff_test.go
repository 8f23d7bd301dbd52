package seq

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// The wire codec packs and unpacks in bulk (32 bases a step in AVX2, 8 per
// word in SWAR) and finds runs of N a word at a time. The plain per-base
// loops below are the reference: every encoding, every decoded read, every
// error text and every consumed size must match them exactly, under both
// kernels.

// eachKernel runs f once per pack kernel this CPU has: SWAR always, AVX2
// where HasAVX2.
func eachKernel(f func()) {
	defer func(saved bool) { useAVX2 = saved }(useAVX2)
	for _, avx2 := range []bool{false, true} {
		if avx2 && !HasAVX2() {
			continue
		}
		useAVX2 = avx2
		f()
	}
}

// kernels is eachKernel with a subtest per kernel.
func kernels(t *testing.T, f func(t *testing.T)) {
	eachKernel(func() {
		name := "swar"
		if useAVX2 {
			name = "avx2"
		}
		t.Run(name, f)
	})
}

// refRuns lists the runs of N in s as [lo, hi) pairs, one base at a time.
func refRuns(s Seq) [][2]int {
	var runs [][2]int
	for i, b := range s {
		if b != N {
			continue
		}
		if k := len(runs) - 1; k >= 0 && runs[k][1] == i {
			runs[k][1]++
		} else {
			runs = append(runs, [2]int{i, i + 1})
		}
	}
	return runs
}

func refRunList(runs [][2]int) []byte {
	list := binary.AppendUvarint(nil, uint64(len(runs)))
	next := 0
	for _, r := range runs {
		list = binary.AppendUvarint(list, uint64(r[0]-next))
		list = binary.AppendUvarint(list, uint64(r[1]-r[0]-1))
		next = r[1] + 1
	}
	return list
}

func refAppendWire(dst []byte, r *Read) []byte {
	n := len(r.Seq)
	packed := make([]byte, (n+3)/4)
	for i, b := range r.Seq {
		if b != N {
			packed[i/4] |= byte(b) << (2 * (i % 4))
		}
	}
	list := refRunList(refRuns(r.Seq))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.ID))
	if len(packed)+len(list) >= n {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
		for _, b := range r.Seq {
			dst = append(dst, byte(b))
		}
		return dst
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n)|1<<31)
	return append(append(dst, packed...), list...)
}

// refUvarint reads a uvarint of at most limit, in the fewest bytes.
func refUvarint(b []byte, limit int) (v, used int, ok bool) {
	var x uint64
	for i := 0; i < len(b) && i < 5; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			if (i > 0 && b[i] == 0) || x > uint64(limit) {
				return 0, 0, false
			}
			return int(x), i + 1, true
		}
	}
	return 0, 0, false
}

func refDecodeWire(buf []byte) (Read, int, error) {
	if len(buf) < 8 {
		return Read{}, 0, fmt.Errorf("seq: wire: short header (%d bytes)", len(buf))
	}
	id := ReadID(binary.LittleEndian.Uint32(buf[0:4]))
	hdr := binary.LittleEndian.Uint32(buf[4:8])
	n, packed := int(hdr&^(1<<31)), hdr>>31 == 1
	q := (n + 3) / 4
	body := n
	if packed {
		body = q + 1
	}
	if len(buf) < 8+body {
		return Read{}, 0, fmt.Errorf("seq: wire: short body: need %d bytes, have %d", 8+body, len(buf))
	}
	s := make(Seq, n)
	if !packed {
		for i := 0; i < n; i++ {
			if buf[8+i] >= NumBases {
				return Read{}, 0, fmt.Errorf("seq: wire: invalid base code %d at offset %d", buf[8+i], 8+i)
			}
			s[i] = Base(buf[8+i])
		}
		if q+len(refRunList(refRuns(s))) < n {
			return Read{}, 0, fmt.Errorf("seq: wire: %d raw bases would pack smaller", n)
		}
		return Read{ID: id, Seq: s}, 8 + n, nil
	}
	for i := n; i < 4*q; i++ {
		if buf[8+i/4]>>(2*(i%4))&3 != 0 {
			return Read{}, 0, fmt.Errorf("seq: wire: bits set past base %d", n)
		}
	}
	for i := range s {
		s[i] = Base(buf[8+i/4] >> (2 * (i % 4)) & 3)
	}
	list := buf[8+q:]
	count, used, ok := refUvarint(list, n)
	if !ok {
		return Read{}, 0, fmt.Errorf("seq: wire: bad run count")
	}
	next := 0
	for r := 0; r < count; r++ {
		gap, k1, ok1 := refUvarint(list[used:], n)
		if !ok1 {
			return Read{}, 0, fmt.Errorf("seq: wire: bad run %d of %d", r, count)
		}
		long, k2, ok2 := refUvarint(list[used+k1:], n)
		used += k1 + k2
		lo := next + gap
		if !ok2 || lo+long+1 > n {
			return Read{}, 0, fmt.Errorf("seq: wire: bad run %d of %d", r, count)
		}
		for i := lo; i <= lo+long; i++ {
			if s[i] != A {
				return Read{}, 0, fmt.Errorf("seq: wire: bits set under the N at %d", lo)
			}
			s[i] = N
		}
		next = lo + long + 2
	}
	if q+used >= n {
		return Read{}, 0, fmt.Errorf("seq: wire: %d packed bases would be no larger raw", n)
	}
	return Read{ID: id, Seq: s}, 8 + q + used, nil
}

// diffDecode decodes buf with the bulk decoder into dst and with the
// reference, and fails unless read, consumed size and error text agree.
func diffDecode(t *testing.T, dst Seq, buf []byte) {
	t.Helper()
	want, wantN, wantErr := refDecodeWire(buf)
	got, gotN, gotErr := DecodeWireInto(dst, buf)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("decode of % x: error %v, reference %v", buf, gotErr, wantErr)
	}
	if gotN != wantN || got.ID != want.ID || !bytes.Equal(seqBytes(got.Seq), seqBytes(want.Seq)) {
		t.Fatalf("decode of % x: (%v, %d), reference (%v, %d)", buf, got, gotN, want, wantN)
	}
	if gotErr == nil && got.Seq == nil {
		t.Fatalf("decode of % x: nil Seq without an error", buf)
	}
	if gotErr == nil && cap(dst) >= len(got.Seq) && len(got.Seq) > 0 && &got.Seq[0] != &dst[:1][0] {
		t.Fatalf("decode of a %d-base read did not land in the %d-capacity buffer it was given", len(got.Seq), cap(dst))
	}
}

// wireShapes are the reads of n bases the codec must get right: random
// with and without N, all N, alternating N and A, N at the first and the
// last base, and runs that straddle the 32-base blocks of the vector
// kernel.
func wireShapes(rng *rand.Rand, n int) []Seq {
	shapes := []Seq{randSeq(rng, n, false), randSeq(rng, n, true), make(Seq, n), make(Seq, n), randSeq(rng, n, false)}
	for i := range shapes[2] {
		shapes[2][i] = N
		if i%2 == 0 {
			shapes[3][i] = N
		}
	}
	if n > 0 {
		shapes[4][0], shapes[4][n-1] = N, N
	}
	for _, at := range []int{31, 63} {
		if at < n {
			s := randSeq(rng, n, false)
			for i := max(0, at-2); i < min(n, at+3); i++ {
				s[i] = N
			}
			shapes = append(shapes, s)
		}
	}
	return shapes
}

func TestWireMatchesByteLoops(t *testing.T) {
	kernels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(17))
		roomy := make(Seq, 0, 160)
		for n := 0; n <= 140; n++ {
			for si, s := range wireShapes(rng, n) {
				r := Read{ID: ReadID(rng.Uint32()), Seq: s}
				want := refAppendWire(nil, &r)

				// Encode: onto nil, onto a prefix that must survive, and into
				// a buffer that already has the room (no reallocation).
				if got := AppendWire(nil, &r); !bytes.Equal(got, want) {
					t.Fatalf("len %d shape %d: AppendWire % x, reference % x", n, si, got, want)
				}
				prefix := []byte{0xde, 0xad}
				if got := AppendWire(prefix, &r); !bytes.Equal(got[:2], prefix) || !bytes.Equal(got[2:], want) {
					t.Fatalf("len %d shape %d: AppendWire after a prefix: % x", n, si, got)
				}
				sized := make([]byte, 0, r.EncodedSize())
				if got := AppendWire(sized, &r); !bytes.Equal(got, want) || &got[0] != &sized[:1][0] {
					t.Fatalf("len %d shape %d: AppendWire reallocated a buffer of EncodedSize", n, si)
				}

				// Decode: without a buffer, with one too small, with one that
				// fits; short, with trailing bytes, and with every byte of
				// the body flipped in turn.
				for _, dst := range []Seq{nil, make(Seq, 0, n/2), roomy} {
					diffDecode(t, dst, want)
					diffDecode(t, dst, want[:len(want)-1])
					diffDecode(t, dst, append(want[:len(want):len(want)], 0xEE, 0xEE))
				}
				for off := 8; off < len(want); off++ {
					for _, code := range []byte{1, NumBases, 0x7f, 0x80, 0xff} {
						bad := append([]byte(nil), want...)
						bad[off] ^= code
						diffDecode(t, roomy, bad)
					}
				}
				// The other body form under the same bases: never accepted.
				flip := append([]byte(nil), want...)
				flip[7] ^= 0x80
				diffDecode(t, roomy, flip)
			}
		}
		for _, hdr := range [][]byte{nil, {1}, {1, 2, 3, 4, 5, 6, 7}} {
			diffDecode(t, roomy, hdr)
		}
	})
}

// TestEncodedSizeBound: the exact size an owner allocates is what
// AppendWire writes, and never more than the WireSizeOf bound requesters
// plan with.
func TestEncodedSizeBound(t *testing.T) {
	kernels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		for n := 0; n <= 140; n++ {
			for si, s := range wireShapes(rng, n) {
				r := Read{Seq: s}
				got := len(AppendWire(nil, &r))
				if got != r.EncodedSize() || got > WireSizeOf(n) {
					t.Fatalf("len %d shape %d: %d bytes, EncodedSize %d, bound %d", n, si, got, r.EncodedSize(), WireSizeOf(n))
				}
			}
		}
		long := Read{Seq: randSeq(rng, 10_000, false)}
		if got := long.EncodedSize(); got != 8+2500+1 {
			t.Fatalf("10 kb N-free read takes %d bytes, want %d", got, 8+2500+1)
		}
	})
}

func TestHasN(t *testing.T) {
	kernels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		for n := 0; n <= 67; n++ {
			s := randSeq(rng, n, false)
			if s.HasN() {
				t.Fatalf("len %d: N-free sequence reported as having N", n)
			}
			for off := 0; off < n; off++ {
				c := s.Clone()
				c[off] = N
				if !c.HasN() {
					t.Fatalf("len %d: N at offset %d missed", n, off)
				}
			}
		}
	})
}

// maxFuzzWire caps FuzzWire's buffer: 256 bytes hold a packed read of
// nearly 1 000 bases, many AVX2 blocks. The engine minimizes a new input in
// time quadratic in its length, so longer buffers stalled the run at 0
// execs/s.
const maxFuzzWire = 256

// FuzzWire feeds arbitrary bytes to the bulk decoder and the reference,
// under both kernels: same read, same consumed size, same error, whatever
// the input. And the format is canonical: whatever decodes re-encodes to
// exactly the bytes it came from.
func FuzzWire(f *testing.F) {
	for _, s := range []string{"ACGTNACGTACGTTGCA", "ACGTACGTACGTACGTAC", "NNNNANNNN", "AN"} {
		r := Read{ID: 7, Seq: MustFromString(s)}
		good := AppendWire(nil, &r)
		f.Add(good)
		f.Add(good[:len(good)-1])
		bad := append([]byte(nil), good...)
		bad[len(bad)-1] ^= 0x85
		f.Add(bad)
	}
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, buf []byte) {
		if len(buf) > maxFuzzWire {
			return
		}
		eachKernel(func() {
			diffDecode(t, nil, buf)
			diffDecode(t, make(Seq, 0, 64), buf)
			if got, n, err := DecodeWire(buf); err == nil {
				if re := AppendWire(nil, &got); !bytes.Equal(re, buf[:n]) {
					t.Fatalf("re-encode of % x gave % x", buf[:n], re)
				}
			}
		})
	})
}

// maxFuzzBases caps FuzzPackDiff's input, returning at once above it
// rather than truncating: the engine minimizes a new input in time
// quadratic in its length.
const maxFuzzBases = 200

// FuzzPackDiff checks the AVX2 kernels against the SWAR kernels on any mix
// of A, C, G, T and N up to 200 bases: the same packed bytes, the same N
// verdict, and the same bases back; and the scan for a byte at or above a
// limit against a byte loop, on the raw input.
func FuzzPackDiff(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3}, 8))
	f.Add(bytes.Repeat([]byte{3, 2, 1, 0, 4}, 40))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if !HasAVX2() {
			t.Skip("no AVX2 on this CPU")
		}
		if len(raw) > maxFuzzBases {
			return
		}
		src := make([]byte, len(raw))
		for i := range src {
			src[i] = raw[i] % NumBases
		}
		var packed [2][]byte
		var hasN [2]bool
		var back [2][]byte
		eachKernel(func() {
			k := 0
			if useAVX2 {
				k = 1
			}
			packed[k] = make([]byte, (len(src)+3)/4)
			hasN[k] = pack(packed[k], src)
			back[k] = make([]byte, len(src))
			unpack(back[k], packed[k])
		})
		if !bytes.Equal(packed[0], packed[1]) || hasN[0] != hasN[1] || !bytes.Equal(back[0], back[1]) {
			t.Fatalf("bases % x: SWAR (% x, %v, % x), AVX2 (% x, %v, % x)",
				src, packed[0], hasN[0], back[0], packed[1], hasN[1], back[1])
		}
		if hasN[0] != (bytes.IndexByte(src, byte(N)) >= 0) {
			t.Fatalf("bases % x: hasN %v", src, hasN[0])
		}
		for i, b := range src {
			if b != byte(N) && back[0][i] != b || b == byte(N) && back[0][i] != byte(A) {
				t.Fatalf("bases % x: base %d came back as %d", src, i, back[0][i])
			}
		}
		for _, limit := range []byte{1, byte(N), NumBases, 0x80} {
			want := -1
			for i, c := range raw {
				if c >= limit {
					want = i
					break
				}
			}
			eachKernel(func() {
				if got := firstAtLeast(raw, limit); got != want {
					t.Fatalf("bytes % x: first >= %d at %d, want %d (avx2 %v)", raw, limit, got, want, useAVX2)
				}
			})
		}
	})
}
