package seq

import "encoding/binary"

// The kernels behind the wire format: pack turns base codes into 2-bit
// codes four to a byte (base i in bits 2(i%4) of byte i/4), unpack turns
// them back, and firstAtLeast (wire.go) scans for the first N or invalid
// code. Two kernels do each job. The AVX2 one (pack_amd64.s) handles 32
// bases a step; the SWAR one handles 8 bases per 64-bit word, runs every
// tail the vector kernel leaves, runs everything off amd64 or without
// AVX2, and is the oracle the vector kernel is tested against.

// useAVX2 selects the vector kernels. It is decided once, from HasAVX2;
// tests flip it to run both kernels.
var useAVX2 = hasAVX2

// HasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across switches — the one check every vector kernel in the
// repository (this package's pack and unpack, align's row leaf) selects on.
func HasAVX2() bool { return hasAVX2 }

// pack writes the 2-bit codes of the bases in src to dst[:(len(src)+3)/4]
// and reports whether src holds an N. An N packs as 0, like A, and the
// bits past the last base are 0.
func pack(dst, src []byte) bool {
	i, hasN := 0, false
	if useAVX2 && len(src) >= 32 {
		i = len(src) &^ 31
		hasN = packAVX2(dst[:i/4], src[:i])
	}
	return packSWAR(dst[i/4:], src[i:]) || hasN
}

// unpack writes len(dst) base codes from the 2-bit codes in src, which
// holds at least (len(dst)+3)/4 bytes.
func unpack(dst, src []byte) {
	i := 0
	if useAVX2 && len(dst) >= 32 {
		i = len(dst) &^ 31
		unpackAVX2(dst[:i], src[:i/4])
	}
	unpackSWAR(dst[i:], src[i/4:])
}

// packSWAR is pack eight bases per 64-bit word; a partial last word is
// packed from a zero-padded copy. An N is a byte with bit 2 set.
func packSWAR(dst, src []byte) bool {
	var seen uint64
	i, o := 0, 0
	for ; i+8 <= len(src); i, o = i+8, o+2 {
		x := binary.LittleEndian.Uint64(src[i:])
		seen |= x
		binary.LittleEndian.PutUint16(dst[o:], pack8(x))
	}
	if i < len(src) {
		var w [8]byte
		copy(w[:], src[i:])
		x := binary.LittleEndian.Uint64(w[:])
		seen |= x
		p := pack8(x)
		dst[o] = byte(p)
		if len(src)-i > 4 {
			dst[o+1] = byte(p >> 8)
		}
	}
	return seen&0x0404040404040404 != 0
}

// pack8 packs the eight base codes of x, one a byte, into 16 bits: each
// step folds neighbouring fields together and halves their count.
func pack8(x uint64) uint16 {
	x &= 0x0303030303030303
	x = (x | x>>6) & 0x000f000f000f000f
	x = (x | x>>12) & 0x000000ff000000ff
	return uint16(x | x>>24)
}

// unpackSWAR is unpack eight bases per 16 bits of input; a partial last
// group is unpacked into a scratch word and copied.
func unpackSWAR(dst, src []byte) {
	i, o := 0, 0
	for ; o+8 <= len(dst); i, o = i+2, o+8 {
		binary.LittleEndian.PutUint64(dst[o:], unpack8(binary.LittleEndian.Uint16(src[i:])))
	}
	if o < len(dst) {
		w := uint16(src[i])
		if len(dst)-o > 4 {
			w |= uint16(src[i+1]) << 8
		}
		var out [8]byte
		binary.LittleEndian.PutUint64(out[:], unpack8(w))
		copy(dst[o:], out[:])
	}
}

// unpack8 is pack8 run backwards.
func unpack8(w uint16) uint64 {
	x := uint64(w)
	x = (x | x<<24) & 0x000000ff000000ff
	x = (x | x<<12) & 0x000f000f000f000f
	return (x | x<<6) & 0x0303030303030303
}
