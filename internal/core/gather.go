package core

import (
	"encoding/binary"
	"fmt"

	"gnbody/internal/rt"
	"gnbody/internal/seq"
)

// hitWire is the fixed on-wire size of one Hit: A, B (uint32), Score,
// AStart, AEnd, BStart, BEnd (int32), RC (1 byte), little-endian.
const hitWire = 29

// EncodeHits serialises hits into a flat byte slice for transport.
func EncodeHits(hs []Hit) []byte {
	buf := make([]byte, 0, len(hs)*hitWire)
	var tmp [hitWire]byte
	for _, h := range hs {
		binary.LittleEndian.PutUint32(tmp[0:], uint32(h.A))
		binary.LittleEndian.PutUint32(tmp[4:], uint32(h.B))
		binary.LittleEndian.PutUint32(tmp[8:], uint32(h.Score))
		binary.LittleEndian.PutUint32(tmp[12:], uint32(h.AStart))
		binary.LittleEndian.PutUint32(tmp[16:], uint32(h.AEnd))
		binary.LittleEndian.PutUint32(tmp[20:], uint32(h.BStart))
		binary.LittleEndian.PutUint32(tmp[24:], uint32(h.BEnd))
		tmp[28] = 0
		if h.RC {
			tmp[28] = 1
		}
		buf = append(buf, tmp[:]...)
	}
	return buf
}

// DecodeHits is the inverse of EncodeHits: it accepts only what EncodeHits
// writes.
func DecodeHits(buf []byte) ([]Hit, error) {
	if len(buf)%hitWire != 0 {
		return nil, fmt.Errorf("core: hit payload of %d bytes is not a multiple of %d", len(buf), hitWire)
	}
	hs := make([]Hit, 0, len(buf)/hitWire)
	for off := 0; off < len(buf); off += hitWire {
		b := buf[off:]
		if b[28] > 1 {
			return nil, fmt.Errorf("core: hit %d has strand byte %d", off/hitWire, b[28])
		}
		hs = append(hs, Hit{
			A:      seq.ReadID(binary.LittleEndian.Uint32(b[0:])),
			B:      seq.ReadID(binary.LittleEndian.Uint32(b[4:])),
			Score:  int32(binary.LittleEndian.Uint32(b[8:])),
			AStart: int32(binary.LittleEndian.Uint32(b[12:])),
			AEnd:   int32(binary.LittleEndian.Uint32(b[16:])),
			BStart: int32(binary.LittleEndian.Uint32(b[20:])),
			BEnd:   int32(binary.LittleEndian.Uint32(b[24:])),
			RC:     b[28] == 1,
		})
	}
	return hs, nil
}

// GatherHits collects every rank's local hits onto rank 0 with a single
// Alltoallv. Rank 0 returns the concatenation in rank order, sorted with
// SortHits; all other ranks return nil. Multi-process backends need this
// because result slices cannot be shared through memory; it also works —
// and accounts identically — on the in-process backends. A peer's frame is
// input: one that does not decode is an error naming the source rank.
func GatherHits(r rt.Runtime, local []Hit) ([]Hit, error) {
	send := make([][]byte, r.Size())
	send[0] = EncodeHits(local)
	recv := r.Alltoallv(send)
	if r.Rank() != 0 {
		return nil, nil
	}
	var all []Hit
	for src, buf := range recv {
		hs, err := DecodeHits(buf)
		if err != nil {
			return nil, fmt.Errorf("core: gather hits from rank %d: %w", src, err)
		}
		all = append(all, hs...)
	}
	SortHits(all)
	return all, nil
}
