package seq

import (
	"encoding/binary"
	"fmt"
	"slices"
	"unsafe"
)

// Wire encoding for reads exchanged between ranks. A read on the wire is
//
//	[4 bytes little-endian ID][4 bytes little-endian length][length base codes]
//
// which matches Read.WireSize. The BSP driver packs many reads per message
// (aggregation); the Async driver ships one per RPC response. Both sides of
// the exchange use these helpers so exchange-load accounting (Figure 6) and
// memory budgeting (Figures 9, 11) are exact.

// A base code on the wire is the Base's own byte, so moving a sequence to or
// from a byte buffer is one memmove and checking it is a scan over 64-bit
// words. seqBytes is the only place a Seq's storage is viewed as bytes.
func seqBytes(s Seq) []byte {
	return unsafe.Slice((*byte)(unsafe.SliceData(s)), len(s))
}

// AppendBases appends the base codes of s to dst.
func AppendBases(dst []byte, s Seq) []byte { return append(dst, seqBytes(s)...) }

// CopyBases copies base codes from src into dst, returning the count
// copied (the shorter length). It does not validate; see InvalidBase.
func CopyBases(dst Seq, src []byte) int { return copy(seqBytes(dst), src) }

// InvalidBase returns the offset of the first byte of b that is not a base
// code, or -1 when all are.
func InvalidBase(b []byte) int { return firstAtLeast(b, NumBases) }

// HasN reports whether s holds a base that 2-bit packing cannot carry (N,
// or any code beyond it).
func (s Seq) HasN() bool { return firstAtLeast(seqBytes(s), byte(N)) >= 0 }

// firstAtLeast returns the offset of the first byte of b that is >= limit
// (limit <= 0x80), or -1. Eight bytes are checked per 64-bit word: a byte
// is >= limit exactly when adding 0x80-limit carries into its high bit or
// that bit was already set. The byte loop runs only on a word that failed
// (to name the offset) and on the tail.
func firstAtLeast(b []byte, limit byte) int {
	const (
		ones = 0x0101010101010101
		high = 0x80 * ones
	)
	add := uint64(0x80-limit) * ones
	i := 0
	for ; i+8 <= len(b); i += 8 {
		if x := binary.LittleEndian.Uint64(b[i:]); ((x+add)|x)&high != 0 {
			break
		}
	}
	for ; i < len(b); i++ {
		if b[i] >= limit {
			return i
		}
	}
	return -1
}

// AppendWire appends the wire encoding of r to dst and returns the
// extended slice. dst grows at most once.
func AppendWire(dst []byte, r *Read) []byte {
	dst = slices.Grow(dst, 8+len(r.Seq))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.ID))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Seq)))
	return AppendBases(dst, r.Seq)
}

// DecodeWire decodes one read from the front of buf, returning the read and
// the number of bytes consumed.
func DecodeWire(buf []byte) (Read, int, error) {
	return DecodeWireInto(nil, buf)
}

// DecodeWireInto is DecodeWire decoding the bases into dst (grown as
// needed), so a caller looping over a receive buffer reuses one sequence
// buffer instead of allocating per read. The returned read's Seq aliases
// dst's backing array; it is valid until the buffer's next reuse, and a
// caller that retains it must Clone it first.
func DecodeWireInto(dst Seq, buf []byte) (Read, int, error) {
	if len(buf) < 8 {
		return Read{}, 0, fmt.Errorf("seq: wire: short header (%d bytes)", len(buf))
	}
	id := binary.LittleEndian.Uint32(buf[0:4])
	n := int(binary.LittleEndian.Uint32(buf[4:8]))
	if len(buf) < 8+n {
		return Read{}, 0, fmt.Errorf("seq: wire: short body: need %d bytes, have %d", 8+n, len(buf))
	}
	var s Seq
	if dst != nil && cap(dst) >= n {
		s = dst[:n]
	} else {
		s = make(Seq, n) // non-nil even for n == 0, matching DecodeWire
	}
	body := buf[8 : 8+n]
	if i := InvalidBase(body); i >= 0 {
		return Read{}, 0, fmt.Errorf("seq: wire: invalid base code %d at offset %d", body[i], 8+i)
	}
	CopyBases(s, body)
	return Read{ID: ReadID(id), Seq: s}, 8 + n, nil
}

// DecodeWireMeta reads just the header of the next read on the wire — its
// ID and consumed size — without touching or validating the body. Callers
// that only need identity (the phantom codec) skip the body copy entirely.
func DecodeWireMeta(buf []byte) (ReadID, int, error) {
	if len(buf) < 8 {
		return 0, 0, fmt.Errorf("seq: wire: short header (%d bytes)", len(buf))
	}
	id := binary.LittleEndian.Uint32(buf[0:4])
	n := int(binary.LittleEndian.Uint32(buf[4:8]))
	if len(buf) < 8+n {
		return 0, 0, fmt.Errorf("seq: wire: short body: need %d bytes, have %d", 8+n, len(buf))
	}
	return ReadID(id), 8 + n, nil
}

// AppendWireZero appends the wire encoding of an n-base all-A read without
// materialising a sequence — the phantom codec's encoder, byte-compatible
// with AppendWire on a zeroed Seq of the same length.
func AppendWireZero(dst []byte, id ReadID, n int) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(id))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(n))
	dst = append(dst, hdr[:]...)
	return append(dst, make([]byte, n)...) // compiles to a zeroing grow, no temp
}

// DecodeWireAll decodes a whole message of concatenated reads.
func DecodeWireAll(buf []byte) ([]Read, error) {
	var out []Read
	for len(buf) > 0 {
		r, n, err := DecodeWire(buf)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		buf = buf[n:]
	}
	return out, nil
}
