#include "textflag.h"

// Two-bit masks: the code bits of every byte, and the bit an N sets.
DATA low2<>+0(SB)/8, $0x0303030303030303
DATA low2<>+8(SB)/8, $0x0303030303030303
DATA low2<>+16(SB)/8, $0x0303030303030303
DATA low2<>+24(SB)/8, $0x0303030303030303
GLOBL low2<>(SB), RODATA|NOPTR, $32

DATA bitN<>+0(SB)/8, $0x0404040404040404
DATA bitN<>+8(SB)/8, $0x0404040404040404
DATA bitN<>+16(SB)/8, $0x0404040404040404
DATA bitN<>+24(SB)/8, $0x0404040404040404
GLOBL bitN<>(SB), RODATA|NOPTR, $32

// VPMADDUBSW weights 1, 4 (two codes to a nibble) and VPMADDWD weights
// 1, 16 (two nibbles to a byte).
DATA pairs<>+0(SB)/8, $0x0401040104010401
DATA pairs<>+8(SB)/8, $0x0401040104010401
DATA pairs<>+16(SB)/8, $0x0401040104010401
DATA pairs<>+24(SB)/8, $0x0401040104010401
GLOBL pairs<>(SB), RODATA|NOPTR, $32

DATA quads<>+0(SB)/8, $0x0010000100100001
DATA quads<>+8(SB)/8, $0x0010000100100001
DATA quads<>+16(SB)/8, $0x0010000100100001
DATA quads<>+24(SB)/8, $0x0010000100100001
GLOBL quads<>(SB), RODATA|NOPTR, $32

// VPSHUFB: the low byte of each dword to bytes 0-3 of its lane, zero
// elsewhere. VPERMD: dword 0 of each lane to dwords 0 and 1.
DATA gather<>+0(SB)/8, $0x808080800c080400
DATA gather<>+8(SB)/8, $0x8080808080808080
DATA gather<>+16(SB)/8, $0x808080800c080400
DATA gather<>+24(SB)/8, $0x8080808080808080
GLOBL gather<>(SB), RODATA|NOPTR, $32

DATA lanes<>+0(SB)/8, $0x0000000400000000
DATA lanes<>+8(SB)/8, $0x0000000000000000
DATA lanes<>+16(SB)/8, $0x0000000000000000
DATA lanes<>+24(SB)/8, $0x0000000000000000
GLOBL lanes<>(SB), RODATA|NOPTR, $32

// VPSHUFB on a broadcast qword: packed byte j to bytes 4j..4j+3 (lane 0
// takes bytes 0-3 of the qword, lane 1 bytes 4-7).
DATA spread<>+0(SB)/8, $0x0101010100000000
DATA spread<>+8(SB)/8, $0x0303030302020202
DATA spread<>+16(SB)/8, $0x0505050504040404
DATA spread<>+24(SB)/8, $0x0707070706060606
GLOBL spread<>(SB), RODATA|NOPTR, $32

// Field k of byte 4j+k: bits 2k, 2k+1.
DATA fields<>+0(SB)/8, $0xc0300c03c0300c03
DATA fields<>+8(SB)/8, $0xc0300c03c0300c03
DATA fields<>+16(SB)/8, $0xc0300c03c0300c03
DATA fields<>+24(SB)/8, $0xc0300c03c0300c03
GLOBL fields<>(SB), RODATA|NOPTR, $32

DATA nibble<>+0(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibble<>+8(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibble<>+16(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibble<>+24(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibble<>(SB), RODATA|NOPTR, $32

// A masked field read as a nibble is c (fields 0, 2) or 4c (fields 1, 3);
// the table maps both to c. The other entries are never looked up.
DATA codes<>+0(SB)/8, $0x0000000103020100
DATA codes<>+8(SB)/8, $0x0000000300000002
DATA codes<>+16(SB)/8, $0x0000000103020100
DATA codes<>+24(SB)/8, $0x0000000300000002
GLOBL codes<>(SB), RODATA|NOPTR, $32

// func packAVX2(dst, src []byte) (hasN bool)
TEXT ·packAVX2(SB), NOSPLIT, $0-49
	MOVQ    dst_base+0(FP), DI
	MOVQ    src_base+24(FP), SI
	MOVQ    src_len+32(FP), CX
	VPXOR   Y7, Y7, Y7
	VMOVDQU low2<>(SB), Y4
	VMOVDQU pairs<>(SB), Y5
	VMOVDQU quads<>(SB), Y6
	VMOVDQU gather<>(SB), Y8
	VMOVDQU lanes<>(SB), Y9
	TESTQ   CX, CX
	JZ      packdone

packloop:
	VMOVDQU    (SI), Y0
	VPOR       Y0, Y7, Y7
	VPAND      Y4, Y0, Y0
	VPMADDUBSW Y5, Y0, Y0
	VPMADDWD   Y6, Y0, Y0
	VPSHUFB    Y8, Y0, Y0
	VPERMD     Y0, Y9, Y0
	VMOVQ      X0, (DI)
	ADDQ       $32, SI
	ADDQ       $8, DI
	SUBQ       $32, CX
	JNZ        packloop

packdone:
	VPTEST     bitN<>(SB), Y7
	SETNE      hasN+48(FP)
	VZEROUPPER
	RET

// func unpackAVX2(dst, src []byte)
TEXT ·unpackAVX2(SB), NOSPLIT, $0-48
	MOVQ    dst_base+0(FP), DI
	MOVQ    dst_len+8(FP), CX
	MOVQ    src_base+24(FP), SI
	VMOVDQU spread<>(SB), Y5
	VMOVDQU fields<>(SB), Y6
	VMOVDQU nibble<>(SB), Y7
	VMOVDQU codes<>(SB), Y8
	TESTQ   CX, CX
	JZ      unpackdone

unpackloop:
	VPBROADCASTQ (SI), Y0
	VPSHUFB      Y5, Y0, Y0
	VPAND        Y6, Y0, Y0
	VPSRLW       $4, Y0, Y1
	VPAND        Y7, Y0, Y0
	VPAND        Y7, Y1, Y1
	VPSHUFB      Y0, Y8, Y0
	VPSHUFB      Y1, Y8, Y1
	VPOR         Y1, Y0, Y0
	VMOVDQU      Y0, (DI)
	ADDQ         $8, SI
	ADDQ         $32, DI
	SUBQ         $32, CX
	JNZ          unpackloop

unpackdone:
	VZEROUPPER
	RET

// func indexAtLeastAVX2(b []byte, limit byte) int
TEXT ·indexAtLeastAVX2(SB), NOSPLIT, $0-40
	MOVQ         b_base+0(FP), SI
	MOVQ         b_len+8(FP), CX
	MOVBLZX      limit+24(FP), AX
	SUBL         $1, AX
	MOVQ         AX, X1
	VPBROADCASTB X1, Y1
	XORQ         DX, DX

scanloop:
	CMPQ     DX, CX
	JEQ      scannone
	VMOVDQU  (SI)(DX*1), Y0
	VPSUBUSB Y1, Y0, Y0
	VPTEST   Y0, Y0
	JNZ      scanfound
	ADDQ     $32, DX
	JMP      scanloop

scanfound:
	VPXOR     Y2, Y2, Y2
	VPCMPEQB  Y2, Y0, Y0
	VPMOVMSKB Y0, AX
	NOTL      AX
	BSFL      AX, AX
	ADDQ      AX, DX
	MOVQ      DX, ret+32(FP)
	VZEROUPPER
	RET

scannone:
	MOVQ $-1, ret+32(FP)
	VZEROUPPER
	RET

// The base decoder's tables, indexed by the low nibble of a case-folded
// letter: a 1, c 3, t 4, u 5, g 7, n e. foldCase is the lower-case bit,
// baseCodes the code of each letter, baseLetters the letter itself (0,
// which no folded byte equals, where no letter owns the nibble).
DATA foldCase<>+0(SB)/8, $0x2020202020202020
DATA foldCase<>+8(SB)/8, $0x2020202020202020
DATA foldCase<>+16(SB)/8, $0x2020202020202020
DATA foldCase<>+24(SB)/8, $0x2020202020202020
GLOBL foldCase<>(SB), RODATA|NOPTR, $32

DATA baseCodes<>+0(SB)/8, $0x0200030301000000
DATA baseCodes<>+8(SB)/8, $0x0004000000000000
DATA baseCodes<>+16(SB)/8, $0x0200030301000000
DATA baseCodes<>+24(SB)/8, $0x0004000000000000
GLOBL baseCodes<>(SB), RODATA|NOPTR, $32

DATA baseLetters<>+0(SB)/8, $0x6700757463006100
DATA baseLetters<>+8(SB)/8, $0x006e000000000000
DATA baseLetters<>+16(SB)/8, $0x6700757463006100
DATA baseLetters<>+24(SB)/8, $0x006e000000000000
GLOBL baseLetters<>(SB), RODATA|NOPTR, $32

// func decodeAVX2(dst []Base, src []byte) (bad int)
TEXT ·decodeAVX2(SB), NOSPLIT, $0-56
	MOVQ    dst_base+0(FP), DI
	MOVQ    src_base+24(FP), SI
	MOVQ    src_len+32(FP), CX
	SUBQ    $32, CX
	VMOVDQU foldCase<>(SB), Y5
	VMOVDQU nibble<>(SB), Y6
	VMOVDQU baseCodes<>(SB), Y7
	VMOVDQU baseLetters<>(SB), Y8
	XORQ    DX, DX

decodeloop:
	VMOVDQU   (SI)(DX*1), Y0
	VPOR      Y5, Y0, Y0
	VPAND     Y6, Y0, Y1
	VPSHUFB   Y1, Y7, Y2
	VPSHUFB   Y1, Y8, Y3
	VPCMPEQB  Y3, Y0, Y3
	VMOVDQU   Y2, (DI)(DX*1)
	VPMOVMSKB Y3, AX
	CMPL      AX, $0xffffffff
	JNE       decodebad
	CMPQ      DX, CX
	JEQ       decodeok
	ADDQ      $32, DX
	CMPQ      DX, CX
	JLE       decodeloop
	MOVQ      CX, DX
	JMP       decodeloop

decodebad:
	NOTL      AX
	BSFL      AX, AX
	ADDQ      AX, DX
	MOVQ      DX, bad+48(FP)
	VZEROUPPER
	RET

decodeok:
	MOVQ $-1, bad+48(FP)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
