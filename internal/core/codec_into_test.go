package core

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"gnbody/internal/seq"
)

// codecsUnderTest builds both codecs over the same random read set.
func codecsUnderTest(t *testing.T) (*seq.ReadSet, map[string]Codec) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	var seqs []seq.Seq
	for i := 0; i < 40; i++ {
		s := make(seq.Seq, rng.Intn(300))
		for j := range s {
			if i%4 == 0 {
				s[j] = seq.Base(rng.Intn(seq.NumBases)) // with runs of N
			} else {
				s[j] = seq.Base(rng.Intn(4))
			}
		}
		seqs = append(seqs, s)
	}
	rs := seq.NewReadSet(seqs)
	lens := make([]int32, rs.Len())
	for i := range lens {
		lens[i] = int32(rs.Reads[i].Len())
	}
	return rs, map[string]Codec{
		"real":    RealCodec{Store: seq.FullStore(rs)},
		"phantom": PhantomCodec{Lens: lens},
	}
}

// TestDecodeIntoMatchesDecode: for every codec, DecodeInto with a reused
// dirty buffer returns exactly what it returns into a fresh (nil) one —
// the property the drivers' unpack loops rely on.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	rs, codecs := codecsUnderTest(t)
	for name, c := range codecs {
		var buf []byte
		for i := range rs.Reads {
			buf = c.Encode(buf, seq.ReadID(i))
		}
		var dst seq.Seq
		plain := buf
		reuse := buf
		for i := 0; i < rs.Len(); i++ {
			want, wn, werr := c.DecodeInto(nil, plain)
			got, gn, gerr := c.DecodeInto(dst, reuse)
			if (werr == nil) != (gerr == nil) || wn != gn {
				t.Fatalf("%s read %d: fresh=(%d,%v) reused=(%d,%v)", name, i, wn, werr, gn, gerr)
			}
			if got.ID != want.ID || len(got.Seq) != len(want.Seq) {
				t.Fatalf("%s read %d: reused %+v, fresh %+v", name, i, got, want)
			}
			for j := range got.Seq {
				if got.Seq[j] != want.Seq[j] {
					t.Fatalf("%s read %d base %d: %d != %d", name, i, j, got.Seq[j], want.Seq[j])
				}
			}
			if cap(got.Seq) > cap(dst) {
				dst = got.Seq
			}
			plain = plain[wn:]
			reuse = reuse[gn:]
		}
	}
}

// TestDecodeIntoAllocFree: with a warm destination buffer, the real codec
// decodes without allocating; the phantom codec never allocates at all.
func TestDecodeIntoAllocFree(t *testing.T) {
	_, codecs := codecsUnderTest(t)
	for name, c := range codecs {
		buf := c.Encode(nil, 7)
		dst := make(seq.Seq, 0, 4096)
		allocs := testing.AllocsPerRun(50, func() {
			if _, _, err := c.DecodeInto(dst, buf); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warm DecodeInto allocates %.1f times per run, want 0", name, allocs)
		}
	}
}

// TestPhantomEncodeMatchesLegacy pins the zero-body encoder to the paper's
// byte payload: the seq wire header and one zero byte per base.
func TestPhantomEncodeMatchesLegacy(t *testing.T) {
	c := PhantomCodec{Lens: []int32{0, 5, 117}}
	for id, n := range c.Lens {
		want := binary.LittleEndian.AppendUint32(nil, uint32(id))
		want = binary.LittleEndian.AppendUint32(want, uint32(n))
		want = append(want, make([]byte, n)...)
		got := c.Encode(nil, seq.ReadID(id))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("read %d: phantom encoding changed layout", id)
		}
		if hid, hn, err := seq.WireHeader(got); err != nil || int(hid) != id || hn != int(n) {
			t.Errorf("read %d: seq.WireHeader reads (%d, %d, %v)", id, hid, hn, err)
		}
	}
}
