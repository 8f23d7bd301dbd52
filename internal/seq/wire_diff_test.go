package seq

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// The wire codec moves and checks bases in bulk (one memmove, eight codes
// per 64-bit word). The plain per-base loops it replaced live on here as
// the reference: every read, every error text and every reported offset
// must match them exactly.

func refAppendWire(dst []byte, r *Read) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(r.ID))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(r.Seq)))
	dst = append(dst, hdr[:]...)
	for _, b := range r.Seq {
		dst = append(dst, byte(b))
	}
	return dst
}

func refDecodeWire(buf []byte) (Read, int, error) {
	if len(buf) < 8 {
		return Read{}, 0, fmt.Errorf("seq: wire: short header (%d bytes)", len(buf))
	}
	id := binary.LittleEndian.Uint32(buf[0:4])
	n := int(binary.LittleEndian.Uint32(buf[4:8]))
	if len(buf) < 8+n {
		return Read{}, 0, fmt.Errorf("seq: wire: short body: need %d bytes, have %d", 8+n, len(buf))
	}
	s := make(Seq, n)
	for i := 0; i < n; i++ {
		b := buf[8+i]
		if b >= NumBases {
			return Read{}, 0, fmt.Errorf("seq: wire: invalid base code %d at offset %d", b, 8+i)
		}
		s[i] = Base(b)
	}
	return Read{ID: ReadID(id), Seq: s}, 8 + n, nil
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

func TestWireMatchesByteLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	roomy := make(Seq, 0, 128)
	for n := 0; n <= 67; n++ {
		r := Read{ID: ReadID(rng.Uint32()), Seq: randSeq(rng, n, true)}
		want := refAppendWire(nil, &r)

		// Encode: onto nil, onto a prefix that must survive, and into a
		// buffer that already has the room (no reallocation allowed).
		if got := AppendWire(nil, &r); !bytes.Equal(got, want) {
			t.Fatalf("len %d: AppendWire % x, reference % x", n, got, want)
		}
		prefix := []byte{0xde, 0xad}
		if got := AppendWire(prefix, &r); !bytes.Equal(got[:2], prefix) || !bytes.Equal(got[2:], want) {
			t.Fatalf("len %d: AppendWire after a prefix: % x", n, got)
		}
		sized := make([]byte, 0, len(want))
		if got := AppendWire(sized, &r); !bytes.Equal(got, want) || &got[0] != &sized[:1][0] {
			t.Fatalf("len %d: AppendWire reallocated a buffer that had room", n)
		}

		// Decode: without a buffer, with one too small, with one that fits.
		for _, dst := range []Seq{nil, make(Seq, 0, n/2), roomy} {
			diffDecode(t, dst, want)
			diffDecode(t, dst, want[:len(want)-min(n, 1)]) // short body
			diffDecode(t, dst, append(want[:len(want):len(want)], 0xEE, 0xEE))
		}

		// An invalid code planted at every offset (so at every offset mod 8
		// of every word and of the tail), alone and with a second one
		// behind it: the first must be the one reported.
		for off := 0; off < n; off++ {
			for _, code := range []byte{NumBases, 0x7f, 0x80, 0xff} {
				bad := append([]byte(nil), want...)
				bad[8+off] = code
				diffDecode(t, roomy, bad)
				if off+3 < n {
					bad[8+off+3] = 0xff
					diffDecode(t, nil, bad)
				}
			}
		}
	}
	for _, hdr := range [][]byte{nil, {1}, {1, 2, 3, 4, 5, 6, 7}} {
		diffDecode(t, roomy, hdr)
	}
}

func TestHasN(t *testing.T) {
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
}

// FuzzWire feeds arbitrary bytes to the bulk decoder and the reference:
// same read, same consumed size, same error, whatever the input; and what
// decodes must re-encode to the bytes it came from.
func FuzzWire(f *testing.F) {
	r := Read{ID: 7, Seq: MustFromString("ACGTNACGTACGTTGCA")}
	good := AppendWire(nil, &r)
	f.Add(good)
	f.Add(good[:len(good)-1])
	bad := append([]byte(nil), good...)
	bad[8+9] = 0x85
	f.Add(bad)
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, buf []byte) {
		diffDecode(t, nil, buf)
		diffDecode(t, make(Seq, 0, 64), buf)
		if got, n, err := DecodeWire(buf); err == nil {
			if re := AppendWire(nil, &got); !bytes.Equal(re, buf[:n]) {
				t.Fatalf("re-encode of % x gave % x", buf[:n], re)
			}
		}
	})
}
