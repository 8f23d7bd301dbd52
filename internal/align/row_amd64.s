#include "go_asm.h"
#include "textflag.h"

// VPERMD index vectors: shift up by 1, 2 and 4 lanes (the low lanes repeat,
// which both scans tolerate), and broadcast lane 7.
DATA shift1<>+0(SB)/8, $0x0000000000000000
DATA shift1<>+8(SB)/8, $0x0000000200000001
DATA shift1<>+16(SB)/8, $0x0000000400000003
DATA shift1<>+24(SB)/8, $0x0000000600000005
GLOBL shift1<>(SB), RODATA|NOPTR, $32

DATA shift2<>+0(SB)/8, $0x0000000100000000
DATA shift2<>+8(SB)/8, $0x0000000100000000
DATA shift2<>+16(SB)/8, $0x0000000300000002
DATA shift2<>+24(SB)/8, $0x0000000500000004
GLOBL shift2<>(SB), RODATA|NOPTR, $32

DATA shift4<>+0(SB)/8, $0x0000000100000000
DATA shift4<>+8(SB)/8, $0x0000000300000002
DATA shift4<>+16(SB)/8, $0x0000000100000000
DATA shift4<>+24(SB)/8, $0x0000000300000002
GLOBL shift4<>(SB), RODATA|NOPTR, $32

DATA lane7<>+0(SB)/8, $0x0000000700000007
DATA lane7<>+8(SB)/8, $0x0000000700000007
DATA lane7<>+16(SB)/8, $0x0000000700000007
DATA lane7<>+24(SB)/8, $0x0000000700000007
GLOBL lane7<>(SB), RODATA|NOPTR, $32

// negInf32 in every lane.
DATA negInf<>+0(SB)/8, $0xdfffffffdfffffff
DATA negInf<>+8(SB)/8, $0xdfffffffdfffffff
DATA negInf<>+16(SB)/8, $0xdfffffffdfffffff
DATA negInf<>+24(SB)/8, $0xdfffffffdfffffff
GLOBL negInf<>(SB), RODATA|NOPTR, $32

// VPERMD index reversing the eight lanes.
DATA reverse<>+0(SB)/8, $0x0000000600000007
DATA reverse<>+8(SB)/8, $0x0000000400000005
DATA reverse<>+16(SB)/8, $0x0000000200000003
DATA reverse<>+24(SB)/8, $0x0000000000000001
GLOBL reverse<>(SB), RODATA|NOPTR, $32

// Eight all-ones lanes, then eight zero lanes: the 32 bytes ending 4n bytes
// past the middle are the mask of a block's first n lanes.
DATA tailMask<>+0(SB)/8, $0xffffffffffffffff
DATA tailMask<>+8(SB)/8, $0xffffffffffffffff
DATA tailMask<>+16(SB)/8, $0xffffffffffffffff
DATA tailMask<>+24(SB)/8, $0xffffffffffffffff
DATA tailMask<>+32(SB)/8, $0x0000000000000000
DATA tailMask<>+40(SB)/8, $0x0000000000000000
DATA tailMask<>+48(SB)/8, $0x0000000000000000
DATA tailMask<>+56(SB)/8, $0x0000000000000000
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// Registers of extendRowsAVX2. Across rows: R8 the state; R11 the slab's
// column 0; R9, R14 the window's lo and hi; Y6 the best; Y13 the best
// minus x; Y8, Y14, Y15 gap, 2·gap, 4·gap; Y9-Y12 the shift and broadcast
// indices. In a row: SI, DI the block in the row and the profile row; R10
// the last block; Y1 t, then u; Y2-Y4 scratch; Y5 the carried u; Y7 the
// diagonal carried into the block; R12, AX the first block with a live
// lane and its pruned lanes (R12 = 0: none yet); R13, DX the last such
// block and its pruned lanes; BX, CX scratch. On the frame: limit, the i
// at which the call stops (a's end or rowCap rows on), and start, the lo
// whose block the next row starts at.

// BLOCK computes u (Y1) for the full block at SI over the profile at DI:
// t = max(p+gap, diag+sub), with diag the row above shifted up a lane and
// lane 0 from Y7, which becomes the block's last cell of the row above —
// read before the block's store overwrites it. Then SCAN.
#define BLOCK \
	VMOVDQU      (SI), Y0; \
	VPERMD       Y0, Y9, Y1; \
	VPBLENDD     $1, Y7, Y1, Y1; \
	VPBROADCASTD 28(SI), Y7; \
	VPADDD       (DI), Y1, Y1; \
	VPADDD       Y8, Y0, Y0; \
	VPMAXSD      Y0, Y1, Y1; \
	SCAN

// SCAN turns t = max(p+gap, diag+sub) in Y1 into u: a log-step prefix scan
// of the gap chain (shift by 1, 2, 4 lanes, adding 1, 2, 4 gaps), maxed with
// the carried u (Y5, every lane) plus (1..8)·gap. Y5 becomes lane 7 of u.
#define SCAN \
	VPERMD  Y1, Y9, Y2; \
	VPADDD  Y8, Y2, Y2; \
	VPMAXSD Y2, Y1, Y1; \
	VPERMD  Y1, Y10, Y2; \
	VPADDD  Y14, Y2, Y2; \
	VPMAXSD Y2, Y1, Y1; \
	VPERMD  Y1, Y11, Y2; \
	VPADDD  Y15, Y2, Y2; \
	VPMAXSD Y2, Y1, Y1; \
	VPADDD  rowsState_ramp(R8), Y5, Y2; \
	VPMAXSD Y2, Y1, Y1; \
	VPERMD  Y1, Y12, Y5

// ROSE leaves BX nonzero if some lane of u (Y1) beats the best (Y6).
#define ROSE \
	VPCMPGTD  Y6, Y1, Y4; \
	VMOVMSKPS Y4, BX; \
	TESTL     BX, BX

// RAISE, for a block that beat the best: the running best B is a prefix
// max of u maxed with the incoming best; the best (Y6) becomes its lane 7,
// Y13 the best minus x, and Y2 the per-lane threshold B - x.
#define RAISE \
	VPERMD       Y1, Y9, Y2; \
	VPMAXSD      Y1, Y2, Y2; \
	VPERMD       Y2, Y10, Y3; \
	VPMAXSD      Y3, Y2, Y2; \
	VPERMD       Y2, Y11, Y3; \
	VPMAXSD      Y3, Y2, Y2; \
	VPMAXSD      Y6, Y2, Y2; \
	VPERMD       Y2, Y12, Y6; \
	VPBROADCASTD rowsState_x(R8), Y3; \
	VPSUBD       Y3, Y6, Y13; \
	VPSUBD       Y3, Y2, Y2

// TOP makes the block's first lane of u equal to the new best — the scalar
// leaf's last strict rise — the new (bestI, bestJ).
#define TOP \
	VPCMPEQD  Y6, Y1, Y3; \
	VMOVMSKPS Y3, BX; \
	BSFL      BX, BX; \
	MOVQ      SI, CX; \
	SUBQ      R11, CX; \
	SHRQ      $2, CX; \
	ADDQ      BX, CX; \
	MOVQ      CX, rowsState_bestJ(R8); \
	MOVQ      rowsState_i(R8), CX; \
	MOVQ      CX, rowsState_bestI(R8)

// PRUNE puts the cells to store in Y3: u (Y1) where it reaches thr, the
// running best minus x per lane, negInf32 elsewhere; Y4 is the mask of the
// pruned lanes. (u >= B-x is u+x >= B: neither side leaves int32.)
#define PRUNE(thr) \
	VPCMPGTD  Y1, thr, Y4; \
	VPBLENDVB Y4, negInf<>(SB), Y1, Y3

// FIRST records the block at SI, with pruned lanes BX, as the first with a
// live lane if none was recorded; only a block with one reaches it.
#define FIRST \
	TESTQ   R12, R12; \
	CMOVQEQ SI, R12; \
	CMOVLEQ BX, AX

// func extendRowsAVX2(st *rowsState)
TEXT ·extendRowsAVX2(SB), NOSPLIT, $16-8
	MOVQ         st+0(FP), R8
	MOVQ         rowsState_slab(R8), R11
	MOVQ         rowsState_lo(R8), R9
	MOVQ         R9, start-16(SP)
	MOVQ         rowsState_hi(R8), R14
	MOVQ         rowsState_i(R8), CX
	ADDQ         $const_rowCap, CX
	MOVQ         (rowsState_a+8)(R8), BX
	CMPQ         CX, BX
	CMOVQGT      BX, CX
	MOVQ         CX, limit-8(SP)
	VPBROADCASTD rowsState_best(R8), Y6
	VPBROADCASTD rowsState_x(R8), Y13
	VPSUBD       Y13, Y6, Y13
	VPBROADCASTD rowsState_ramp+0(R8), Y8
	VPBROADCASTD rowsState_ramp+4(R8), Y14
	VPBROADCASTD rowsState_ramp+12(R8), Y15
	VMOVDQU      shift1<>(SB), Y9
	VMOVDQU      shift2<>(SB), Y10
	VMOVDQU      shift4<>(SB), Y11
	VMOVDQU      lane7<>(SB), Y12

	// Row i+1 over columns [lo, hi+1] clipped to b, in blocks of eight
	// from the block holding the row above's own lo (start), which is
	// known a row early: the row above computed every column from there
	// and kept none left of lo, so those columns hold negInf32 above and
	// come out pruned, and the row's first loads need not wait for the
	// row above's edges. The call returns before a row whose column hi+1
	// has no profile yet, after the last row of a, and after rowCap rows.
row:
	MOVQ rowsState_i(R8), CX
	CMPQ CX, limit-8(SP)
	JGE  exit
	CMPQ R14, rowsState_blen(R8)
	JGE  count
	LEAQ 1(R14), BX
	CMPQ BX, rowsState_built(R8)
	JGT  exit
	MOVQ BX, R14

count:
	INCQ CX
	MOVQ CX, rowsState_i(R8)
	MOVQ R14, BX
	SUBQ R9, BX
	INCQ BX
	ADDQ BX, rowsState_cells(R8)

	// Row i's base, a[i-1], or a[alen-i] walking backward, clamped to N,
	// picks its profile row: (1+base)·stride columns past the DP row.
	MOVQ    rowsState_a(R8), BX
	CMPB    rowsState_rev(R8), $0
	JNE     backward
	MOVBLZX -1(BX)(CX*1), BX
	JMP     based

backward:
	NEGQ    CX
	ADDQ    (rowsState_a+8)(R8), CX
	MOVBLZX (BX)(CX*1), BX

based:
	MOVL    $4, CX
	CMPL    BX, CX
	CMOVLHI CX, BX
	INCQ    BX
	IMULQ   rowsState_stride(R8), BX
	MOVQ    start-16(SP), CX
	ANDQ    $-8, CX
	LEAQ    (R11)(CX*4), SI
	ADDQ    CX, BX
	MOVQ    R9, start-16(SP)
	LEAQ    (R11)(BX*4), DI
	MOVQ    R14, CX
	ANDQ    $-8, CX
	LEAQ    (R11)(CX*4), R10
	VMOVDQU negInf<>(SB), Y5
	VMOVDQU Y5, Y7
	XORL    R12, R12
	CMPQ    SI, R10
	JEQ     lastblock

	// Full blocks before the first with a live lane, then full blocks
	// after it, up to the last block. A block that does not beat the
	// best prunes against the incoming one, which is then its running best
	// in every lane.
leading:
	BLOCK
	ROSE
	JNZ       raise
	PRUNE(Y13)
	VMOVDQU   Y3, (SI)
	VMOVMSKPS Y4, BX
	CMPL      BX, $0xff
	JNE       firstlive
	ADDQ      $32, SI
	ADDQ      $32, DI
	CMPQ      SI, R10
	JLT       leading
	JMP       lastblock

firstlive:
	MOVQ SI, R12
	MOVL BX, AX
	JMP  next

blocks:
	BLOCK
	ROSE
	JNZ     raise
	PRUNE(Y13)
	VMOVDQU Y3, (SI)

next:
	ADDQ $32, SI
	ADDQ $32, DI
	CMPQ SI, R10
	JLT  blocks

	// The block holding column hi, loaded and stored whole, with t
	// negInf32 in the lanes past hi and those lanes stored pruned. Above
	// column hi+1 and past it the block holds negInf32: the row above
	// stored it there, past its own hi and in the whole block after its
	// last, as this row does. The slab's row is a whole number of blocks
	// long with at least one block to spare, so both blocks are inside it.
lastblock:
	VMOVDQU   (SI), Y0
	VPERMD    Y0, Y9, Y1
	VPBLENDD  $1, Y7, Y1, Y1
	VPADDD    (DI), Y1, Y1
	VPADDD    Y8, Y0, Y0
	VPMAXSD   Y0, Y1, Y1
	MOVQ      R14, BX
	ANDQ      $7, BX
	SHLQ      $2, BX
	LEAQ      tailMask<>+28(SB), CX
	SUBQ      BX, CX
	VMOVDQU   (CX), Y0
	VMOVDQU   negInf<>(SB), Y2
	VPBLENDVB Y0, Y1, Y2, Y1
	SCAN
	ROSE
	JNZ       lastraise
	VPCMPGTD  Y1, Y13, Y4

lastprune:
	VPANDN    Y0, Y4, Y4
	VMOVDQU   negInf<>(SB), Y2
	VPBLENDVB Y4, Y1, Y2, Y3
	VMOVDQU   Y3, (SI)
	VMOVDQU   Y2, 32(SI)
	VMOVMSKPS Y4, BX
	XORL      $0xff, BX
	CMPL      BX, $0xff
	JEQ       lastdead
	FIRST
	MOVQ      SI, R13
	MOVL      BX, DX
	JMP       window

	// A row with no live cell ends the extension. Otherwise the last live
	// block is at or after the first: the nearest before the last block
	// whose stored cells are not all negInf32, read back whole from where
	// this row stored it.
lastdead:
	TESTQ R12, R12
	JZ    ended
	MOVQ  SI, R13

back:
	SUBQ      $32, R13
	VPCMPEQD  (R13), Y2, Y4
	VMOVMSKPS Y4, DX
	CMPL      DX, $0xff
	JEQ       back

	// The next window runs from the first live cell to the last: a live
	// cell holds u >= best-x > negInf32, a pruned one negInf32, so these
	// are the cells extendRows' shrink loops stop at.
window:
	SUBQ R11, R12
	SHRQ $2, R12
	NOTL AX
	BSFL AX, AX
	LEAQ (R12)(AX*1), R9
	SUBQ R11, R13
	SHRQ $2, R13
	NOTL DX
	ANDL $0xff, DX
	BSRL DX, DX
	LEAQ (R13)(DX*1), R14
	JMP  row

ended:
	LEAQ 1(R14), R9

exit:
	MOVQ  R9, rowsState_lo(R8)
	MOVQ  R14, rowsState_hi(R8)
	VMOVD X6, BX
	MOVL  BX, rowsState_best(R8)
	VZEROUPPER
	RET

raise:
	RAISE
	PRUNE(Y2)
	VMOVDQU   Y3, (SI)
	VMOVMSKPS Y4, BX
	FIRST
	TOP
	JMP       next

lastraise:
	RAISE
	VPCMPGTD Y1, Y2, Y4
	TOP
	JMP      lastprune

// func buildProfileAVX2(prof []int32, stride int, bases seq.Seq, rev bool, sub *subTable)
TEXT ·buildProfileAVX2(SB), NOSPLIT, $0-72
	MOVQ         prof_base+0(FP), DI
	MOVQ         stride+24(FP), DX
	SHLQ         $2, DX
	LEAQ         (DX)(DX*2), R8
	MOVQ         bases_base+32(FP), SI
	MOVQ         bases_len+40(FP), CX
	MOVQ         sub+64(FP), BX
	VMOVDQU      0(BX), Y10
	VMOVDQU      32(BX), Y11
	VMOVDQU      64(BX), Y12
	VMOVDQU      96(BX), Y13
	VMOVDQU      128(BX), Y14
	MOVL         $4, AX
	VMOVD        AX, X15
	VPBROADCASTD X15, Y15
	VMOVDQU      reverse<>(SB), Y9
	CMPB         rev+56(FP), $0
	JNE          backward

forward:
	VPMOVZXBD (SI), Y0
	VPMINUD   Y15, Y0, Y0
	VPERMD    Y10, Y0, Y1
	VMOVDQU   Y1, (DI)
	VPERMD    Y11, Y0, Y1
	VMOVDQU   Y1, (DI)(DX*1)
	VPERMD    Y12, Y0, Y1
	VMOVDQU   Y1, (DI)(DX*2)
	VPERMD    Y13, Y0, Y1
	VMOVDQU   Y1, (DI)(R8*1)
	VPERMD    Y14, Y0, Y1
	VMOVDQU   Y1, (DI)(DX*4)
	ADDQ      $8, SI
	ADDQ      $32, DI
	SUBQ      $8, CX
	JNZ       forward
	VZEROUPPER
	RET

	// Walking backward, the first column's base is the last in memory:
	// each block loads the eight bases below the previous and reverses
	// them.
backward:
	LEAQ -8(SI)(CX*1), SI

back:
	VPMOVZXBD (SI), Y0
	VPERMD    Y0, Y9, Y0
	VPMINUD   Y15, Y0, Y0
	VPERMD    Y10, Y0, Y1
	VMOVDQU   Y1, (DI)
	VPERMD    Y11, Y0, Y1
	VMOVDQU   Y1, (DI)(DX*1)
	VPERMD    Y12, Y0, Y1
	VMOVDQU   Y1, (DI)(DX*2)
	VPERMD    Y13, Y0, Y1
	VMOVDQU   Y1, (DI)(R8*1)
	VPERMD    Y14, Y0, Y1
	VMOVDQU   Y1, (DI)(DX*4)
	SUBQ      $8, SI
	ADDQ      $32, DI
	SUBQ      $8, CX
	JNZ       back
	VZEROUPPER
	RET
