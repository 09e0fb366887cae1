#include "textflag.h"

// compact is sixteen 32-byte entries, one per four-lane compare mask m:
// the lane numbers of m's set bits in ascending order as four int32s
// (unused slots zero), then their count as a quadword. Words not listed
// are zero.
DATA compact<>+0x030(SB)/8, $1
DATA compact<>+0x040(SB)/8, $0x1
DATA compact<>+0x050(SB)/8, $1
DATA compact<>+0x060(SB)/8, $0x100000000
DATA compact<>+0x070(SB)/8, $2
DATA compact<>+0x080(SB)/8, $0x2
DATA compact<>+0x090(SB)/8, $1
DATA compact<>+0x0a0(SB)/8, $0x200000000
DATA compact<>+0x0b0(SB)/8, $2
DATA compact<>+0x0c0(SB)/8, $0x200000001
DATA compact<>+0x0d0(SB)/8, $2
DATA compact<>+0x0e0(SB)/8, $0x100000000
DATA compact<>+0x0e8(SB)/8, $0x2
DATA compact<>+0x0f0(SB)/8, $3
DATA compact<>+0x100(SB)/8, $0x3
DATA compact<>+0x110(SB)/8, $1
DATA compact<>+0x120(SB)/8, $0x300000000
DATA compact<>+0x130(SB)/8, $2
DATA compact<>+0x140(SB)/8, $0x300000001
DATA compact<>+0x150(SB)/8, $2
DATA compact<>+0x160(SB)/8, $0x100000000
DATA compact<>+0x168(SB)/8, $0x3
DATA compact<>+0x170(SB)/8, $3
DATA compact<>+0x180(SB)/8, $0x300000002
DATA compact<>+0x190(SB)/8, $2
DATA compact<>+0x1a0(SB)/8, $0x200000000
DATA compact<>+0x1a8(SB)/8, $0x3
DATA compact<>+0x1b0(SB)/8, $3
DATA compact<>+0x1c0(SB)/8, $0x200000001
DATA compact<>+0x1c8(SB)/8, $0x3
DATA compact<>+0x1d0(SB)/8, $3
DATA compact<>+0x1e0(SB)/8, $0x100000000
DATA compact<>+0x1e8(SB)/8, $0x300000002
DATA compact<>+0x1f0(SB)/8, $4
GLOBL compact<>(SB), RODATA|NOPTR, $512

// laneTail is four all-ones quadwords, then four zero ones: the 32 bytes
// at offset 8·(4−r) are the VMASKMOVPD mask of a last step of r < 4
// candidates.
DATA laneTail<>+0x00(SB)/8, $-1
DATA laneTail<>+0x08(SB)/8, $-1
DATA laneTail<>+0x10(SB)/8, $-1
DATA laneTail<>+0x18(SB)/8, $-1
GLOBL laneTail<>(SB), RODATA|NOPTR, $64

// TEST leaves in Y4 the four lanes' Dist2 <= c2 decisions, all-ones or
// zero, for the candidates whose x, y and z are in Y4, Y5 and Y6: each
// lane computes (float64(dx*dx)+float64(dy*dy))+float64(dz*dz) with
// dx = p[0]−x, as appendWithinGeneric does, and compares it ordered
// and quiet (predicate 0x12, LE_OQ), so a NaN distance fails.
#define TEST \
	VSUBPD   Y4, Y0, Y4; \
	VSUBPD   Y5, Y1, Y5; \
	VSUBPD   Y6, Y2, Y6; \
	VMULPD   Y4, Y4, Y4; \
	VMULPD   Y5, Y5, Y5; \
	VMULPD   Y6, Y6, Y6; \
	VADDPD   Y5, Y4, Y4; \
	VADDPD   Y6, Y4, Y4; \
	VCMPPD   $0x12, Y3, Y4, Y4

// EMIT writes the positions R10+lane of the set bits of the mask in DX
// to out[R8:], in ascending order, and advances R8 past them. It
// always stores four int32s, so out must have room for three past the
// last hit; the unused slots are overwritten by the next step or lie
// past the returned count.
#define EMIT \
	SHLQ         $5, DX; \
	VMOVD        R10, X8; \
	VPBROADCASTD X8, X8; \
	VPADDD       (R13)(DX*1), X8, X8; \
	VMOVDQU      X8, (SI)(R8*4); \
	ADDQ         16(R13)(DX*1), R8

// func withinAVX2(out []int32, xs, ys, zs []float64, runs []int32, p0, p1, p2, c2 float64) int
TEXT ·withinAVX2(SB), NOSPLIT, $0-160
	MOVQ         out_base+0(FP), SI
	MOVQ         xs_base+24(FP), AX
	MOVQ         ys_base+48(FP), BX
	MOVQ         zs_base+72(FP), CX
	MOVQ         runs_base+96(FP), DI
	MOVQ         runs_len+104(FP), R9
	VBROADCASTSD p0+120(FP), Y0
	VBROADCASTSD p1+128(FP), Y1
	VBROADCASTSD p2+136(FP), Y2
	VBROADCASTSD c2+144(FP), Y3
	LEAQ         laneTail<>(SB), R12
	LEAQ         compact<>(SB), R13
	XORQ         R8, R8 // hits written

run:
	SUBQ    $2, R9
	JLT     done
	MOVLQSX (DI), R10  // q, the run's next candidate
	MOVLQSX 4(DI), R11 // the run's end
	ADDQ    $8, DI

step:
	LEAQ    4(R10), DX
	CMPQ    DX, R11
	JGT     tail
	VMOVUPD (AX)(R10*8), Y4
	VMOVUPD (BX)(R10*8), Y5
	VMOVUPD (CX)(R10*8), Y6
	TEST
	VMOVMSKPD Y4, DX
	EMIT
	ADDQ    $4, R10
	JMP     step

tail:
	MOVQ       R11, DX
	SUBQ       R10, DX // r candidates left, r < 4; none if r <= 0
	JLE        run
	NEGQ       DX
	ADDQ       $4, DX
	VMOVUPD    (R12)(DX*8), Y7
	VMASKMOVPD (AX)(R10*8), Y7, Y4 // masked-off lanes read 0 and touch no memory
	VMASKMOVPD (BX)(R10*8), Y7, Y5
	VMASKMOVPD (CX)(R10*8), Y7, Y6
	TEST
	VANDPD     Y7, Y4, Y4 // a masked-off lane is no candidate, whatever p is
	VMOVMSKPD  Y4, DX
	EMIT
	JMP        run

done:
	VZEROUPPER
	MOVQ R8, ret+152(FP)
	RET
