package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gnbody/internal/align"
	"gnbody/internal/par"
	"gnbody/internal/partition"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
)

func TestPackedCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var seqs []seq.Seq
	for i := 0; i < 50; i++ {
		n := rng.Intn(200)
		s := make(seq.Seq, n)
		withN := i%3 == 0
		for j := range s {
			if withN {
				s[j] = seq.Base(rng.Intn(5))
			} else {
				s[j] = seq.Base(rng.Intn(4))
			}
		}
		seqs = append(seqs, s)
	}
	rs := seq.NewReadSet(seqs)
	c := PackedCodec{Store: seq.FullStore(rs)}
	var buf []byte
	for i := range rs.Reads {
		start := len(buf)
		buf = c.Encode(buf, seq.ReadID(i))
		if got := len(buf) - start; got != c.WireSize(seq.ReadID(i)) {
			t.Fatalf("read %d: encoded %d bytes, WireSize says %d", i, got, c.WireSize(seq.ReadID(i)))
		}
	}
	for i := 0; i < rs.Len(); i++ {
		r, n, err := c.Decode(buf)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		buf = buf[n:]
		if r.ID != seq.ReadID(i) || !reflect.DeepEqual(r.Seq, rs.Reads[i].Seq) {
			t.Fatalf("read %d corrupted through packing", i)
		}
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes", len(buf))
	}
}

func TestPackedCodecSavesBytes(t *testing.T) {
	s := make(seq.Seq, 1000)
	for i := range s {
		s[i] = seq.Base(i % 4)
	}
	rs := seq.NewReadSet([]seq.Seq{s})
	packed := PackedCodec{Store: seq.FullStore(rs)}.WireSize(0)
	raw := RealCodec{Store: seq.FullStore(rs)}.WireSize(0)
	if packed >= raw/3 {
		t.Errorf("packed %d bytes vs raw %d: expected ≈4x saving", packed, raw)
	}
}

func TestPackedCodecErrors(t *testing.T) {
	c := PackedCodec{}
	if _, _, err := c.Decode([]byte{1, 2}); err == nil {
		t.Error("short header accepted")
	}
	rs := seq.NewReadSet([]seq.Seq{seq.MustFromString("ACGTACGT")})
	c = PackedCodec{Store: seq.FullStore(rs)}
	buf := c.Encode(nil, 0)
	if _, _, err := c.Decode(buf[:len(buf)-1]); err == nil {
		t.Error("short body accepted")
	}
}

// refPackedEncode is the per-base encoder PackedCodec.Encode replaced, kept
// as the differential reference.
func refPackedEncode(dst []byte, id seq.ReadID, s seq.Seq) []byte {
	packed := true
	for _, b := range s {
		if b >= seq.N {
			packed = false
			break
		}
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(id))
	n := uint32(len(s))
	if packed {
		n |= packedFlag
	}
	binary.LittleEndian.PutUint32(hdr[4:], n)
	dst = append(dst, hdr[:]...)
	if !packed {
		for _, b := range s {
			dst = append(dst, byte(b))
		}
		return dst
	}
	var cur byte
	for i, b := range s {
		cur |= byte(b) << uint((i%4)*2)
		if i%4 == 3 {
			dst = append(dst, cur)
			cur = 0
		}
	}
	if len(s)%4 != 0 {
		dst = append(dst, cur)
	}
	return dst
}

// TestPackedCodecMatchesByteLoops: every length 0..67, N-free (packed) and
// with an N at every position (the byte fallback), onto nil and into a
// buffer with room; and the fallback's decoder reports an invalid code at
// any offset with the parent's error text.
func TestPackedCodecMatchesByteLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for n := 0; n <= 67; n++ {
		base := make(seq.Seq, n)
		for i := range base {
			base[i] = seq.Base(rng.Intn(4))
		}
		variants := []seq.Seq{base}
		for off := 0; off < n; off++ {
			v := base.Clone()
			v[off] = seq.N
			variants = append(variants, v)
		}
		for vi, s := range variants {
			c := PackedCodec{Store: seq.FullStore(seq.NewReadSet([]seq.Seq{s}))}
			want := refPackedEncode(nil, 0, s)
			if got := c.Encode(nil, 0); !bytes.Equal(got, want) {
				t.Fatalf("len %d variant %d: Encode % x, reference % x", n, vi, got, want)
			}
			sized := append(make([]byte, 0, 2+len(want)), 0xde, 0xad)
			if got := c.Encode(sized, 0); !bytes.Equal(got[2:], want) || &got[0] != &sized[0] {
				t.Fatalf("len %d variant %d: Encode into a sized buffer: % x", n, vi, got)
			}
			if got := c.WireSize(0); got != len(want) {
				t.Fatalf("len %d variant %d: WireSize %d, encoded %d", n, vi, got, len(want))
			}
			r, used, err := c.DecodeInto(make(seq.Seq, 0, 80), want)
			if err != nil || used != len(want) || !reflect.DeepEqual(r.Seq, s) {
				t.Fatalf("len %d variant %d: round trip gave (%v, %d, %v)", n, vi, r.Seq, used, err)
			}
			if vi == 0 {
				continue
			}
			for off := 0; off < n; off++ {
				bad := append([]byte(nil), want...)
				bad[8+off] = 0x80 | byte(off)
				_, _, err := c.DecodeInto(nil, bad)
				if wantErr := fmt.Sprintf("core: packed wire: invalid base %d", bad[8+off]); err == nil || err.Error() != wantErr {
					t.Fatalf("len %d: invalid code at %d: error %v, want %q", n, off, err, wantErr)
				}
			}
		}
	}
}

// The BSP driver must produce identical hits through the packed codec —
// and ship fewer bytes doing it.
func TestPackedCodecDriverEquivalence(t *testing.T) {
	w := makeWorkload(t, 8000, 6, 211)
	sc := align.DefaultScoring()
	want, err := SerialHits(w.reads, w.tasks, sc, 15, 40)
	if err != nil {
		t.Fatal(err)
	}
	rawHits, rawRes, _ := runReal(t, w, 4, 0, false, RealExecutor{Scoring: sc, X: 15}, 40)
	if !reflect.DeepEqual(rawHits, want) {
		t.Fatal("raw codec diverged (fixture problem)")
	}

	// Re-run with the packed codec.
	lens := w.lens()
	lensInt := make([]int, len(lens))
	for i, l := range lens {
		lensInt[i] = int(l)
	}
	pt, err := partition.BySize(lensInt, 4)
	if err != nil {
		t.Fatal(err)
	}
	byRank := partition.AssignTasks(w.tasks, pt)
	world, err := par.NewWorld(par.Config{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*Result, 4)
	errs := make([]error, 4)
	world.Run(func(r rt.Runtime) {
		lo, hi := pt.Range(r.Rank())
		st := seq.Scope(w.reads, lo, hi, lens)
		in := &Input{Part: pt, Lens: lens, Tasks: byRank[r.Rank()],
			Codec: PackedCodec{Store: st}, Store: st}
		results[r.Rank()], errs[r.Rank()] = RunBSP(r, in, Config{Exec: RealExecutor{Scoring: sc, X: 15}, MinScore: 40})
	})
	var got []Hit
	var packedBytes int64
	for rk := 0; rk < 4; rk++ {
		if errs[rk] != nil {
			t.Fatalf("rank %d: %v", rk, errs[rk])
		}
		got = append(got, results[rk].Hits...)
		packedBytes += results[rk].ExchangeRecvBytes
	}
	SortHits(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("packed codec changed the result set: %d vs %d hits", len(got), len(want))
	}
	var rawBytes int64
	for _, res := range rawRes {
		rawBytes += res.ExchangeRecvBytes
	}
	if packedBytes >= rawBytes*2/3 {
		t.Errorf("packed exchange %d bytes not well below raw %d", packedBytes, rawBytes)
	}
}
