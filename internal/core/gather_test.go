package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"gnbody/internal/par"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
)

func TestHitWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	hs := make([]Hit, 200)
	for i := range hs {
		hs[i] = Hit{
			A:      seq.ReadID(rng.Uint32()),
			B:      seq.ReadID(rng.Uint32()),
			Score:  int32(rng.Uint32()),
			AStart: int32(rng.Uint32()),
			AEnd:   int32(rng.Uint32()),
			BStart: int32(rng.Uint32()),
			BEnd:   int32(rng.Uint32()),
			RC:     rng.Intn(2) == 1,
		}
	}
	buf := EncodeHits(hs)
	if len(buf) != len(hs)*hitWire {
		t.Fatalf("encoded %d bytes, want %d", len(buf), len(hs)*hitWire)
	}
	got, err := DecodeHits(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, hs) {
		t.Fatal("round trip mismatch")
	}
	if _, err := DecodeHits(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated payload decoded without error")
	}
	if got, err := DecodeHits(nil); err != nil || len(got) != 0 {
		t.Fatalf("empty payload: got %v, %v", got, err)
	}
}

// raggedRuntime cuts the last byte off what its rank sends rank 0.
type raggedRuntime struct{ rt.Runtime }

func (c raggedRuntime) Alltoallv(send [][]byte) [][]byte {
	send = append([][]byte(nil), send...)
	send[0] = send[0][:len(send[0])-1]
	return c.Runtime.Alltoallv(send)
}

// TestGatherHitsRaggedFrame: a peer's hit frame that is not a whole number
// of records is an error on rank 0 naming the peer, not a panic, and every
// rank returns.
func TestGatherHitsRaggedFrame(t *testing.T) {
	const p = 3
	world, err := par.NewWorld(par.Config{P: p})
	if err != nil {
		t.Fatal(err)
	}
	hits := make([][]Hit, p)
	errs := make([]error, p)
	if err := world.Run(func(r rt.Runtime) {
		local := []Hit{{A: seq.ReadID(r.Rank()), B: 9, Score: 100}}
		if r.Rank() == 1 {
			r = raggedRuntime{r}
		}
		hits[r.Rank()], errs[r.Rank()] = GatherHits(r, local)
	}); err != nil {
		t.Fatal(err)
	}
	if errs[0] == nil || !strings.Contains(errs[0].Error(), "rank 1") {
		t.Errorf("rank 0 returned %v, want an error naming rank 1", errs[0])
	}
	if hits[0] != nil {
		t.Errorf("rank 0 returned %d hits beside its error", len(hits[0]))
	}
	for rk := 1; rk < p; rk++ {
		if errs[rk] != nil || hits[rk] != nil {
			t.Errorf("rank %d returned (%v, %v), want (nil, nil)", rk, hits[rk], errs[rk])
		}
	}
}

// FuzzDecodeHits feeds arbitrary bytes to the decoder of GatherHits frames:
// it must not panic, must reject a length that is no whole number of hits,
// and whatever it accepts must re-encode to exactly its bytes.
func FuzzDecodeHits(f *testing.F) {
	good := EncodeHits([]Hit{{A: 1, B: 2, Score: 300, AEnd: 90, BEnd: 95, RC: true}, {A: 7, B: 3, Score: -1}})
	f.Add(good)
	f.Add(good[:len(good)-1])
	bad := append([]byte(nil), good...)
	bad[28] = 2
	f.Add(bad)
	f.Fuzz(func(t *testing.T, data []byte) {
		hs, err := DecodeHits(data)
		if len(data)%hitWire != 0 && err == nil {
			t.Fatalf("%d bytes decode as %d hits", len(data), len(hs))
		}
		if err == nil && !bytes.Equal(EncodeHits(hs), data) {
			t.Fatal("hits re-encode to different bytes")
		}
	})
}
