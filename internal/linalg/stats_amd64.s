#include "textflag.h"

// statsMask is 24 all-ones quadwords, then 24 zero ones: the 192 bytes
// at offset 8·(24−r) are the VMASKMOVPD masks of a last round of
// r < 24 coordinates, for lanes 0–3, 4–7, …, 20–23.
DATA statsMask<>+0x00(SB)/8, $-1
DATA statsMask<>+0x08(SB)/8, $-1
DATA statsMask<>+0x10(SB)/8, $-1
DATA statsMask<>+0x18(SB)/8, $-1
DATA statsMask<>+0x20(SB)/8, $-1
DATA statsMask<>+0x28(SB)/8, $-1
DATA statsMask<>+0x30(SB)/8, $-1
DATA statsMask<>+0x38(SB)/8, $-1
DATA statsMask<>+0x40(SB)/8, $-1
DATA statsMask<>+0x48(SB)/8, $-1
DATA statsMask<>+0x50(SB)/8, $-1
DATA statsMask<>+0x58(SB)/8, $-1
DATA statsMask<>+0x60(SB)/8, $-1
DATA statsMask<>+0x68(SB)/8, $-1
DATA statsMask<>+0x70(SB)/8, $-1
DATA statsMask<>+0x78(SB)/8, $-1
DATA statsMask<>+0x80(SB)/8, $-1
DATA statsMask<>+0x88(SB)/8, $-1
DATA statsMask<>+0x90(SB)/8, $-1
DATA statsMask<>+0x98(SB)/8, $-1
DATA statsMask<>+0xa0(SB)/8, $-1
DATA statsMask<>+0xa8(SB)/8, $-1
DATA statsMask<>+0xb0(SB)/8, $-1
DATA statsMask<>+0xb8(SB)/8, $-1
DATA statsMask<>+0xc0(SB)/8, $0
DATA statsMask<>+0xc8(SB)/8, $0
DATA statsMask<>+0xd0(SB)/8, $0
DATA statsMask<>+0xd8(SB)/8, $0
DATA statsMask<>+0xe0(SB)/8, $0
DATA statsMask<>+0xe8(SB)/8, $0
DATA statsMask<>+0xf0(SB)/8, $0
DATA statsMask<>+0xf8(SB)/8, $0
DATA statsMask<>+0x100(SB)/8, $0
DATA statsMask<>+0x108(SB)/8, $0
DATA statsMask<>+0x110(SB)/8, $0
DATA statsMask<>+0x118(SB)/8, $0
DATA statsMask<>+0x120(SB)/8, $0
DATA statsMask<>+0x128(SB)/8, $0
DATA statsMask<>+0x130(SB)/8, $0
DATA statsMask<>+0x138(SB)/8, $0
DATA statsMask<>+0x140(SB)/8, $0
DATA statsMask<>+0x148(SB)/8, $0
DATA statsMask<>+0x150(SB)/8, $0
DATA statsMask<>+0x158(SB)/8, $0
DATA statsMask<>+0x160(SB)/8, $0
DATA statsMask<>+0x168(SB)/8, $0
DATA statsMask<>+0x170(SB)/8, $0
DATA statsMask<>+0x178(SB)/8, $0
GLOBL statsMask<>(SB), RODATA|NOPTR, $384

// COMBINE folds the 24 lanes in Y0–Y5 (Y0 lanes 0–3, …, Y5 lanes
// 20–23) into the three axis sums of axisSum, X9 = [x, y] and the low
// word of X10 = z. Lane l holds axis l mod 3. Y0+Y3, Y1+Y4 and Y2+Y5
// are t0–t3, t4–t7 and t8–t11 (tk = sk + s(k+12)); adding t6–t9 (the
// high half of Y1 with the low half of Y2) to t0–t3 gives t0+t6, t1+t7
// (x, y) and t2+t8, t3+t9 (z, x), and t4+t10, t5+t11 (y, z) go to X7.
// Then x = (t0+t6)+(t3+t9), y = (t1+t7)+(t4+t10), z = (t2+t8)+(t5+t11).
#define COMBINE \
	VADDPD       Y3, Y0, Y0; \
	VADDPD       Y4, Y1, Y1; \
	VADDPD       Y5, Y2, Y2; \
	VPERM2F128   $0x21, Y2, Y1, Y6; \
	VADDPD       Y6, Y0, Y0; \
	VEXTRACTF128 $1, Y2, X7; \
	VADDPD       X7, X1, X7; \
	VEXTRACTF128 $1, Y0, X8; \
	VSHUFPD      $1, X7, X8, X9; \
	VADDPD       X9, X0, X9; \
	VPERMILPD    $1, X7, X10; \
	VADDSD       X10, X8, X10

// SQUARES adds, for the 24 coordinates at byte offset off from element
// AX of the row (SI), (row[k] − c[k mod 3])², rounded, to lane k: Y14,
// Y15 and Y13 hold c by lane for Y0/Y3, Y1/Y4 and Y2/Y5.
#define SQUARES(off) \
	VMOVUPD off(SI)(AX*8), Y6; \
	VMOVUPD off+32(SI)(AX*8), Y7; \
	VMOVUPD off+64(SI)(AX*8), Y8; \
	VMOVUPD off+96(SI)(AX*8), Y9; \
	VMOVUPD off+128(SI)(AX*8), Y10; \
	VMOVUPD off+160(SI)(AX*8), Y11; \
	VSUBPD  Y14, Y6, Y6; \
	VSUBPD  Y15, Y7, Y7; \
	VSUBPD  Y13, Y8, Y8; \
	VSUBPD  Y14, Y9, Y9; \
	VSUBPD  Y15, Y10, Y10; \
	VSUBPD  Y13, Y11, Y11; \
	VMULPD  Y6, Y6, Y6; \
	VMULPD  Y7, Y7, Y7; \
	VMULPD  Y8, Y8, Y8; \
	VMULPD  Y9, Y9, Y9; \
	VMULPD  Y10, Y10, Y10; \
	VMULPD  Y11, Y11, Y11; \
	VADDPD  Y6, Y0, Y0; \
	VADDPD  Y7, Y1, Y1; \
	VADDPD  Y8, Y2, Y2; \
	VADDPD  Y9, Y3, Y3; \
	VADDPD  Y10, Y4, Y4; \
	VADDPD  Y11, Y5, Y5

// TAILSUM adds the tail's lanes k·4 … k·4+3 to Yacc: R8 points at the
// tail's masks and R9 at the tail, and a masked-off lane reads 0.
#define TAILSUM(off, acc) \
	VMOVUPD    off(R8), Y12; \
	VMASKMOVPD off(R9), Y12, Y6; \
	VADDPD     Y6, acc, acc

// TAILSQUARE is TAILSUM for the squares, with c by lane in cv; a
// masked-off lane's difference (0 − c) is masked to +0 before it is
// squared, so it adds +0.
#define TAILSQUARE(off, cv, acc) \
	VMOVUPD    off(R8), Y12; \
	VMASKMOVPD off(R9), Y12, Y6; \
	VSUBPD     cv, Y6, Y6; \
	VANDPD     Y12, Y6, Y6; \
	VMULPD     Y6, Y6, Y6; \
	VADDPD     Y6, acc, acc

// func frameSumsAVX2(row []float64, inv float64) (cx, cy, cz, q float64)
TEXT ·frameSumsAVX2(SB), NOSPLIT, $0-64
	MOVQ   row_base+0(FP), SI
	MOVQ   row_len+8(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	XORQ   AX, AX
	MOVQ   CX, DX
	SUBQ   $24, DX // the last whole round starts at or before DX

sums:
	CMPQ   AX, DX
	JGT    sumsTail
	VADDPD 0(SI)(AX*8), Y0, Y0
	VADDPD 32(SI)(AX*8), Y1, Y1
	VADDPD 64(SI)(AX*8), Y2, Y2
	VADDPD 96(SI)(AX*8), Y3, Y3
	VADDPD 128(SI)(AX*8), Y4, Y4
	VADDPD 160(SI)(AX*8), Y5, Y5
	ADDQ   $24, AX
	JMP    sums

sumsTail:
	MOVQ CX, BX
	SUBQ AX, BX // r floats left, 0 ≤ r < 24
	JZ   centroid
	NEGQ BX
	ADDQ $24, BX
	LEAQ statsMask<>(SB), R8
	LEAQ (R8)(BX*8), R8
	LEAQ (SI)(AX*8), R9
	TAILSUM(0, Y0)
	TAILSUM(32, Y1)
	TAILSUM(64, Y2)
	TAILSUM(96, Y3)
	TAILSUM(128, Y4)
	TAILSUM(160, Y5)

centroid:
	COMBINE
	VMOVDDUP inv+24(FP), X11
	VMULPD   X11, X9, X9   // cx, cy
	VMULSD   X11, X10, X10 // cz
	VMOVSD   X9, cx+32(FP)
	VMOVHPD  X9, cy+40(FP)
	VMOVSD   X10, cz+48(FP)

	// c by lane: Y14 = [cx cy cz cx] for lanes 0–3 and 12–15, Y15 = [cy
	// cz cx cy] for 4–7 and 16–19, Y13 = [cz cx cy cz] for 8–11 and 20–23.
	VUNPCKLPD   X9, X10, X12   // cz, cx
	VSHUFPD     $1, X10, X9, X13 // cy, cz
	VINSERTF128 $1, X12, Y9, Y14
	VINSERTF128 $1, X9, Y13, Y15
	VINSERTF128 $1, X13, Y12, Y13

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	XORQ   AX, AX

squares:
	CMPQ AX, DX
	JGT  squaresTail
	SQUARES(0)
	ADDQ $24, AX
	JMP  squares

squaresTail:
	MOVQ CX, BX
	SUBQ AX, BX
	JZ   total
	NEGQ BX
	ADDQ $24, BX
	LEAQ statsMask<>(SB), R8
	LEAQ (R8)(BX*8), R8
	LEAQ (SI)(AX*8), R9
	TAILSQUARE(0, Y14, Y0)
	TAILSQUARE(32, Y15, Y1)
	TAILSQUARE(64, Y13, Y2)
	TAILSQUARE(96, Y14, Y3)
	TAILSQUARE(128, Y15, Y4)
	TAILSQUARE(160, Y13, Y5)

total:
	COMBINE
	VPERMILPD $1, X9, X11 // y, x
	VADDSD    X11, X9, X9 // x + y
	VADDSD    X10, X9, X9 // (x + y) + z
	VZEROUPPER
	VMOVSD    X9, q+56(FP)
	RET
