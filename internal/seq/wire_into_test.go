package seq

import (
	"math/rand"
	"testing"
)

// The buffer-reuse decode helpers must agree with the allocating forms —
// same reads, same consumed sizes, same errors — and actually be
// allocation-free once the destination buffer is warm.

func TestDecodeWireIntoMatchesDecodeWire(t *testing.T) {
	kernels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		var dst Seq
		for iter := 0; iter < 100; iter++ {
			want := Read{ID: ReadID(rng.Intn(1 << 20)), Seq: make(Seq, rng.Intn(200))}
			for i := range want.Seq {
				want.Seq[i] = Base(rng.Intn(NumBases))
			}
			buf := AppendWire(nil, &want)

			got, n, err := DecodeWireInto(dst, buf)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(buf) || got.ID != want.ID || len(got.Seq) != len(want.Seq) {
				t.Fatalf("DecodeWireInto = (%+v, %d), want (%+v, %d)", got, n, want, len(buf))
			}
			for i := range got.Seq {
				if got.Seq[i] != want.Seq[i] {
					t.Fatalf("base %d = %d, want %d", i, got.Seq[i], want.Seq[i])
				}
			}
			if cap(got.Seq) > cap(dst) {
				dst = got.Seq // adopt the grown buffer, as looping callers do
			}

			id, bases, err := WireHeader(buf)
			if err != nil || id != want.ID || bases != len(want.Seq) {
				t.Fatalf("WireHeader = (%d, %d, %v), want (%d, %d, nil)", id, bases, err, want.ID, len(want.Seq))
			}
		}
	})
}

func TestDecodeWireIntoErrors(t *testing.T) {
	dst := make(Seq, 0, 64)
	if _, _, err := DecodeWireInto(dst, []byte{1, 2, 3}); err == nil {
		t.Error("short header accepted")
	}
	if _, _, err := WireHeader([]byte{1, 2, 3}); err == nil {
		t.Error("header: short header accepted")
	}
	r := Read{ID: 9, Seq: MustFromString("ACGTN")}
	buf := AppendWire(nil, &r)
	if _, _, err := DecodeWireInto(dst, buf[:len(buf)-1]); err == nil {
		t.Error("short body accepted")
	}
	bad := append([]byte(nil), buf...)
	bad[len(bad)-1] = 0xEE
	if _, _, err := DecodeWireInto(dst, bad); err == nil {
		t.Error("invalid base accepted")
	}
}

func TestDecodeWireIntoAllocFree(t *testing.T) {
	r := Read{ID: 3, Seq: make(Seq, 500)}
	buf := AppendWire(nil, &r)
	dst := make(Seq, 0, len(r.Seq))
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := DecodeWireInto(dst, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm DecodeWireInto allocates %.1f times per run, want 0", allocs)
	}
}
