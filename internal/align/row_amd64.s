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

// Eight all-ones lanes, then eight zero lanes: the 32 bytes ending 4n bytes
// past the middle are the VPMASKMOVD mask of an n-lane tail.
DATA tailMask<>+0(SB)/8, $0xffffffffffffffff
DATA tailMask<>+8(SB)/8, $0xffffffffffffffff
DATA tailMask<>+16(SB)/8, $0xffffffffffffffff
DATA tailMask<>+24(SB)/8, $0xffffffffffffffff
DATA tailMask<>+32(SB)/8, $0x0000000000000000
DATA tailMask<>+40(SB)/8, $0x0000000000000000
DATA tailMask<>+48(SB)/8, $0x0000000000000000
DATA tailMask<>+56(SB)/8, $0x0000000000000000
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// Registers of extendRowAVX2. Y1: t, then u; Y2-Y4: scratch; Y5: the
// carried u; Y6: the best; Y7: the diagonal carried into the block; Y8,
// Y14, Y15: gap, 2·gap, 4·gap; Y9-Y12: the shift and broadcast indices;
// Y13: the best minus x. SI, DI: the block in row and sub; R8: the ramp
// (1..8)·gap; R11: the row's first column; R12: x; AX: top.

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
	VPADDD  (R8), Y5, Y2; \
	VPMAXSD Y2, Y1, Y1; \
	VPERMD  Y1, Y12, Y5

// ROSE leaves BX nonzero if some lane of u (Y1) beats the best (Y6).
#define ROSE \
	VPCMPGTD  Y6, Y1, Y4; \
	VMOVMSKPS Y4, BX; \
	TESTL     BX, BX

// RAISE, for a block that beat the best: the running best B is a prefix
// max of u maxed with the incoming best; the best (Y6) becomes its lane 7,
// Y13 the best minus x, Y2 the per-lane threshold B - x, and top (AX) the
// block's first lane of u equal to the new best — the scalar leaf's last
// strict rise.
#define RAISE \
	VPERMD       Y1, Y9, Y2; \
	VPMAXSD      Y1, Y2, Y2; \
	VPERMD       Y2, Y10, Y3; \
	VPMAXSD      Y3, Y2, Y2; \
	VPERMD       Y2, Y11, Y3; \
	VPMAXSD      Y3, Y2, Y2; \
	VPMAXSD      Y6, Y2, Y2; \
	VPERMD       Y2, Y12, Y6; \
	VMOVD        R12, X3; \
	VPBROADCASTD X3, Y3; \
	VPSUBD       Y3, Y6, Y13; \
	VPSUBD       Y3, Y2, Y2; \
	VPCMPEQD     Y6, Y1, Y4; \
	VMOVMSKPS    Y4, BX; \
	BSFL         BX, BX; \
	MOVQ         SI, AX; \
	SUBQ         R11, AX; \
	SHRQ         $2, AX; \
	ADDQ         BX, AX

// PRUNE puts the cells to store in Y3: u (Y1) where it reaches thr, the
// running best minus x per lane, negInf32 elsewhere. (u >= B-x is u+x >= B:
// neither side leaves int32.)
#define PRUNE(thr) \
	VPCMPGTD  Y1, thr, Y4; \
	VPBLENDVB Y4, negInf<>(SB), Y1, Y3

// func extendRowAVX2(row, sub []int32, best, x int32, ramp *gapRamp) (rowBest int32, top int)
TEXT ·extendRowAVX2(SB), NOSPLIT, $0-80
	MOVQ row_base+0(FP), SI
	MOVQ row_len+8(FP), CX
	MOVQ sub_base+24(FP), DI
	MOVQ ramp+56(FP), R8
	MOVQ SI, R11
	LEAQ (SI)(CX*4), R9
	LEAQ -32(R9), R10
	MOVL best+48(FP), AX
	VMOVD AX, X6
	VPBROADCASTD X6, Y6
	MOVL x+52(FP), R12
	VMOVD R12, X13
	VPBROADCASTD X13, Y13
	VPSUBD Y13, Y6, Y13
	VPBROADCASTD (R8), Y8
	VPBROADCASTD 4(R8), Y14
	VPBROADCASTD 12(R8), Y15
	VMOVDQU negInf<>(SB), Y5
	VMOVDQU Y5, Y7
	VMOVDQU shift1<>(SB), Y9
	VMOVDQU shift2<>(SB), Y10
	VMOVDQU shift4<>(SB), Y11
	VMOVDQU lane7<>(SB), Y12
	MOVQ $-1, AX
	CMPQ SI, R10
	JGT  tail

	// Full blocks, up to R10. Y7 holds, in every lane, the row-above cell
	// left of the block: the diagonal of its first column, read before the
	// block's store overwrites it. A block that does not beat the best
	// prunes against the incoming one, which is then its running best in
	// every lane.
loop:
	VMOVDQU      (SI), Y0
	VPERMD       Y0, Y9, Y1
	VPBLENDD     $1, Y7, Y1, Y1
	VPBROADCASTD 28(SI), Y7
	VPADDD       (DI), Y1, Y1
	VPADDD       Y8, Y0, Y0
	VPMAXSD      Y0, Y1, Y1
	SCAN
	ROSE
	JNZ          raise
	PRUNE(Y13)
	VMOVDQU      Y3, (SI)

next:
	ADDQ $32, SI
	ADDQ $32, DI
	CMPQ SI, R10
	JLE  loop

	// The last 1..7 columns: masked loads and store, and t forced to
	// negInf32 in the lanes past the row so they cannot raise the best.
	// The mask moves to Y0 once p is spent.
tail:
	MOVQ R9, CX
	SUBQ SI, CX
	JZ   done
	LEAQ tailMask<>+32(SB), BX
	SUBQ CX, BX
	VMOVDQU    (BX), Y4
	VPMASKMOVD (SI), Y4, Y0
	VPMASKMOVD (DI), Y4, Y2
	VPERMD     Y0, Y9, Y1
	VPBLENDD   $1, Y7, Y1, Y1
	VPADDD     Y2, Y1, Y1
	VPADDD     Y8, Y0, Y0
	VPMAXSD    Y0, Y1, Y1
	VMOVDQU    negInf<>(SB), Y2
	VPBLENDVB  Y4, Y1, Y2, Y1
	VMOVDQU    Y4, Y0
	SCAN
	ROSE
	JNZ        tailraise
	PRUNE(Y13)
	VPMASKMOVD Y3, Y0, (SI)

done:
	VMOVD X6, BX
	MOVL  BX, rowBest+64(FP)
	MOVQ  AX, top+72(FP)
	VZEROUPPER
	RET

raise:
	RAISE
	PRUNE(Y2)
	VMOVDQU Y3, (SI)
	JMP     next

tailraise:
	RAISE
	PRUNE(Y2)
	VPMASKMOVD Y3, Y0, (SI)
	JMP        done
