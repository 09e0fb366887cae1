#include "textflag.h"

// maskTail is eight all-ones quadwords, then eight zero ones: the 64
// bytes at offset 8·(8−r) are the VMASKMOVPD masks of a last round of
// r < 8 coordinates, for lanes 0–3 and 4–7.
DATA maskTail<>+0x00(SB)/8, $-1
DATA maskTail<>+0x08(SB)/8, $-1
DATA maskTail<>+0x10(SB)/8, $-1
DATA maskTail<>+0x18(SB)/8, $-1
DATA maskTail<>+0x20(SB)/8, $-1
DATA maskTail<>+0x28(SB)/8, $-1
DATA maskTail<>+0x30(SB)/8, $-1
DATA maskTail<>+0x38(SB)/8, $-1
DATA maskTail<>+0x40(SB)/8, $0
DATA maskTail<>+0x48(SB)/8, $0
DATA maskTail<>+0x50(SB)/8, $0
DATA maskTail<>+0x58(SB)/8, $0
DATA maskTail<>+0x60(SB)/8, $0
DATA maskTail<>+0x68(SB)/8, $0
DATA maskTail<>+0x70(SB)/8, $0
DATA maskTail<>+0x78(SB)/8, $0
GLOBL maskTail<>(SB), RODATA|NOPTR, $128

// ROUND adds one round of eight coordinates, at byte offset off from
// element AX of a (SI) and b (DI), to the lanes: Y0 holds lanes 0–3, Y1
// lanes 4–7. Lane k adds (a[k]−b[k])², rounded, as the generic loop's
// s_k += float64(d*d) does.
#define ROUND(off) \
	VMOVUPD off(SI)(AX*8), Y2; \
	VMOVUPD off+32(SI)(AX*8), Y3; \
	VSUBPD  off(DI)(AX*8), Y2, Y2; \
	VSUBPD  off+32(DI)(AX*8), Y3, Y3; \
	VMULPD  Y2, Y2, Y2; \
	VMULPD  Y3, Y3, Y3; \
	VADDPD  Y2, Y0, Y0; \
	VADDPD  Y3, Y1, Y1

// COMBINE leaves ((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7)) in X4: Y4 =
// Y0+Y1 holds s0+s4, s1+s5, s2+s6, s3+s7; adding its high half to its
// low half gives (s0+s4)+(s2+s6) and (s1+s5)+(s3+s7), and VADDSD adds
// the second of those to the first.
#define COMBINE \
	VADDPD       Y1, Y0, Y4; \
	VEXTRACTF128 $1, Y4, X5; \
	VADDPD       X5, X4, X4; \
	VPERMILPD    $1, X4, X5; \
	VADDSD       X5, X4, X4

// func sumSquaresAVX2(a, b []float64, limit float64) (sum float64, read int)
TEXT ·sumSquaresAVX2(SB), NOSPLIT, $0-72
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_base+24(FP), DI
	VMOVSD limit+48(FP), X6
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ   AX, AX
	MOVQ   CX, DX
	SUBQ   $24, DX // the last block starts at or before DX

block:
	CMPQ AX, DX
	JGT  rounds
	ROUND(0)
	ROUND(64)
	ROUND(128)
	ADDQ     $24, AX
	COMBINE
	VUCOMISD X6, X4
	JHI      abandon // X4 > limit; a NaN on either side is unordered, and falls through
	JMP      block

rounds:
	MOVQ CX, DX
	SUBQ $8, DX

round:
	CMPQ AX, DX
	JGT  last
	ROUND(0)
	ADDQ $8, AX
	JMP  round

last:
	MOVQ CX, BX
	SUBQ AX, BX // r coordinates left, 0 ≤ r < 8
	JZ   done
	NEGQ BX
	ADDQ $8, BX
	LEAQ maskTail<>(SB), R8
	VMOVUPD    (R8)(BX*8), Y7
	VMOVUPD    32(R8)(BX*8), Y8
	VMASKMOVPD (SI)(AX*8), Y7, Y2 // masked-off lanes read 0 and are not touched in memory
	VMASKMOVPD 32(SI)(AX*8), Y8, Y3
	VMASKMOVPD (DI)(AX*8), Y7, Y4
	VMASKMOVPD 32(DI)(AX*8), Y8, Y5
	VSUBPD     Y4, Y2, Y2
	VSUBPD     Y5, Y3, Y3
	VMULPD     Y2, Y2, Y2
	VMULPD     Y3, Y3, Y3
	VADDPD     Y2, Y0, Y0 // + (0−0)² = +0 in an unused lane: a lane sum is never −0
	VADDPD     Y3, Y1, Y1

done:
	COMBINE
	MOVQ CX, AX

abandon:
	VZEROUPPER
	VMOVSD X4, sum+56(FP)
	MOVQ   AX, read+64(FP)
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
