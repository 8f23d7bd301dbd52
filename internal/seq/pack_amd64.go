package seq

var hasAVX2 = avx2Supported()

// packAVX2 is pack on 32 bases a step (pack_amd64.s); len(src) must be a
// multiple of 32 and len(dst) = len(src)/4. Each step masks the codes to
// two bits, folds pairs with VPMADDUBSW and quads with VPMADDWD, and
// gathers the four low bytes of each lane with VPSHUFB and VPERMD. An N is
// found by OR-ing every input block and testing bit 2 once at the end.
//
//go:noescape
func packAVX2(dst, src []byte) (hasN bool)

// unpackAVX2 is unpack on 32 bases a step; len(dst) must be a multiple of
// 32 and len(src) = len(dst)/4. Each step broadcasts 8 packed bytes,
// copies byte j to output bytes 4j..4j+3 with VPSHUFB, keeps field k of
// output byte 4j+k, and maps the field to its code with one VPSHUFB table
// lookup per nibble.
//
//go:noescape
func unpackAVX2(dst, src []byte)

// indexAtLeastAVX2 is firstAtLeast on 32 bytes a step; len(b) must be a
// multiple of 32. Each step subtracts limit-1 with unsigned saturation,
// which leaves a byte nonzero exactly when it is >= limit, and tests the
// block with VPTEST; only the block that fails is searched for the offset.
//
//go:noescape
func indexAtLeastAVX2(b []byte, limit byte) int

// decodeAVX2 is decodeBases on 32 bytes a step; len(src) must be at least
// 32 and len(dst) = len(src). A short last block is the full block that
// ends the input, overlapping the one before it. Each step folds case with
// OR 0x20, looks up the code and the one letter that owns the low nibble
// in two VPSHUFB tables, and marks every byte unequal to that letter with
// VPCMPEQB and VPMOVMSKB: the high nibble, too, must be the letter's.
//
//go:noescape
func decodeAVX2(dst []Base, src []byte) (bad int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax uint32)

// avx2Supported reports AVX2 in CPUID leaf 7 and, through OSXSAVE and
// XGETBV, that the OS saves both XMM and YMM state across switches.
func avx2Supported() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}
