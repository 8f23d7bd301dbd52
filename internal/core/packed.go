package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"gnbody/internal/seq"
)

// PackedCodec is RealCodec with 2-bit base packing for N-free reads:
// roughly a 4x wire-size reduction on clean data, trading pack/unpack CPU
// for exchange volume — the §5 bandwidth-vs-compute trade from the other
// side. Reads containing N fall back to byte encoding.
//
// Wire format per read:
//
//	[4B id][4B length with bit31 = packed flag][payload]
//
// where payload is ceil(len/4) packed bytes or len raw base codes.
//
// Like RealCodec it encodes from the rank's owner-only store; note that
// WireSize also needs the bases (to detect N), so it too is owned-only —
// superstep planning must use the length vector instead, accepting the
// byte-encoded size as a safe overestimate.
type PackedCodec struct{ Store seq.Store }

const packedFlag = 1 << 31

// Encode appends the packed wire form of read id (must be resident). The
// read is scanned for N once and dst grows at most once.
func (c PackedCodec) Encode(dst []byte, id seq.ReadID) []byte {
	s := c.Store.Get(id).Seq
	n, nb := uint32(len(s)), len(s)
	packed := !s.HasN()
	if packed {
		n, nb = n|packedFlag, (len(s)+3)/4
	}
	dst = slices.Grow(dst, 8+nb)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
	dst = binary.LittleEndian.AppendUint32(dst, n)
	if !packed {
		return seq.AppendBases(dst, s)
	}
	out := dst[len(dst) : len(dst)+nb]
	full := len(s) / 4
	for i := 0; i < full; i++ {
		q := s[4*i : 4*i+4 : 4*i+4]
		out[i] = byte(q[0]) | byte(q[1])<<2 | byte(q[2])<<4 | byte(q[3])<<6
	}
	if full < nb {
		var cur byte
		for j, b := range s[4*full:] {
			cur |= byte(b) << uint(2*j)
		}
		out[full] = cur
	}
	return dst[:len(dst)+nb]
}

// WireSize returns the packed wire size of read id (must be resident).
func (c PackedCodec) WireSize(id seq.ReadID) int {
	s := c.Store.Get(id).Seq
	if s.HasN() {
		return 8 + len(s)
	}
	return 8 + (len(s)+3)/4
}

// Decode parses one packed wire read.
func (c PackedCodec) Decode(buf []byte) (seq.Read, int, error) {
	return c.DecodeInto(nil, buf)
}

// DecodeInto parses one packed wire read, unpacking the bases into dst
// (grown as needed) instead of a fresh allocation per read.
func (c PackedCodec) DecodeInto(dst seq.Seq, buf []byte) (seq.Read, int, error) {
	if len(buf) < 8 {
		return seq.Read{}, 0, fmt.Errorf("core: packed wire: short header")
	}
	id := binary.LittleEndian.Uint32(buf[0:4])
	nf := binary.LittleEndian.Uint32(buf[4:8])
	packed := nf&packedFlag != 0
	n := int(nf &^ packedFlag)
	body := 8 + n
	if packed {
		body = 8 + (n+3)/4
	}
	if len(buf) < body {
		return seq.Read{}, 0, fmt.Errorf("core: packed wire: short body (%d < %d)", len(buf), body)
	}
	var s seq.Seq
	if dst != nil && cap(dst) >= n {
		s = dst[:n]
	} else {
		s = make(seq.Seq, n) // non-nil even for n == 0, matching Decode
	}
	if packed {
		for i := 0; i < n; i++ {
			s[i] = seq.Base(buf[8+i/4] >> uint((i%4)*2) & 3)
		}
	} else {
		raw := buf[8:body]
		if i := seq.InvalidBase(raw); i >= 0 {
			return seq.Read{}, 0, fmt.Errorf("core: packed wire: invalid base %d", raw[i])
		}
		seq.CopyBases(s, raw)
	}
	return seq.Read{ID: seq.ReadID(id), Seq: s}, body, nil
}
