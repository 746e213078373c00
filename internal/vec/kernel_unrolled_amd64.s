// SSE2 bodies of the unrolled kernel. See kernel_unrolled_amd64.go: the
// lanes of each accumulator are the Go body's chains, the ragged tail
// adds into lane 0 (chain s0) with scalar SSE, and the reduction adds
// the chains in the Go body's order. AX is the element index in every
// routine; floats are addressed as (base)(AX*4) and bytes as (base)(AX*1).

#include "textflag.h"

// PAIRSUM sets lanes 0,1 of a to a0+a1, a2+a3 and lanes 2,3 to b0+b1,
// b2+b3 (t is scratch). With b = a only lanes 0,1 are meaningful.
#define PAIRSUM(a, b, t) \
	MOVAPS a, t \
	SHUFPS $0x88, b, a \
	SHUFPS $0xDD, b, t \
	ADDPS  t, a

// LANESUM sets lane 0 of a to a0+a1.
#define LANESUM(a, t) \
	MOVAPS a, t \
	SHUFPS $0x55, t, t \
	ADDSS  t, a

// REDUCE8 leaves ((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7)) in lane 0 of a,
// where a = [s0 s1 s2 s3] and b = [s4 s5 s6 s7].
#define REDUCE8(a, b, t) \
	PAIRSUM(a, b, t) \
	PAIRSUM(a, a, t) \
	LANESUM(a, t)

// REDUCE4 leaves (s0+s1)+(s2+s3) in lane 0 of a = [s0 s1 s2 s3].
#define REDUCE4(a, t) \
	PAIRSUM(a, a, t) \
	LANESUM(a, t)

// L2STEP adds (x−y)² for the eight elements at AX of row x into chains
// a0 (lanes 0–3) and a1 (lanes 4–7); y's elements are in X8, X9.
#define L2STEP(x, t0, t1, a0, a1) \
	MOVUPS (x)(AX*4), t0 \
	MOVUPS 16(x)(AX*4), t1 \
	SUBPS  X8, t0 \
	SUBPS  X9, t1 \
	MULPS  t0, t0 \
	MULPS  t1, t1 \
	ADDPS  t0, a0 \
	ADDPS  t1, a1

// L2TAIL adds (x−y)² for the element at AX into lane 0 of a; y's
// element is in X8.
#define L2TAIL(x, t, a) \
	MOVSS (x)(AX*4), t \
	SUBSS X8, t \
	MULSS t, t \
	ADDSS t, a

// DECODE4 widens the four codes at AX of c to float32 lanes of t
// (X9 must be zero): bytes → words → dwords → floats, all exact.
#define DECODE4(c, t) \
	MOVSS     (c)(AX*1), t \
	PUNPCKLBW X9, t \
	PUNPCKLWL X9, t \
	CVTPL2PS  t, t

// DOTSTEP adds w·float32(c) for the four elements at AX into a; w's
// elements are in X8.
#define DOTSTEP(c, t, a) \
	DECODE4(c, t) \
	MULPS X8, t \
	ADDPS t, a

// DOTTAIL adds w·float32(c) for the element at AX into lane 0 of a;
// w's element is in X8.
#define DOTTAIL(c, r, t, a) \
	MOVBLZX  (c)(AX*1), r \
	CVTSL2SS r, t \
	MULSS    X8, t \
	ADDSS    t, a

// func l2sqrSSE(x, y *float32, n int) float32
TEXT ·l2sqrSSE(SB), NOSPLIT, $0-28
	MOVQ  x+0(FP), SI
	MOVQ  y+8(FP), DI
	MOVQ  n+16(FP), CX
	MOVQ  CX, BX
	ANDQ  $-8, BX
	XORQ  AX, AX
	XORPS X0, X0
	XORPS X1, X1

l2loop:
	CMPQ   AX, BX
	JGE    l2tail
	MOVUPS (DI)(AX*4), X8
	MOVUPS 16(DI)(AX*4), X9
	L2STEP(SI, X10, X11, X0, X1)
	ADDQ   $8, AX
	JMP    l2loop

l2tail:
	CMPQ  AX, CX
	JGE   l2reduce
	MOVSS (DI)(AX*4), X8
	L2TAIL(SI, X10, X0)
	INCQ  AX
	JMP   l2tail

l2reduce:
	REDUCE8(X0, X1, X2)
	MOVSS X0, ret+24(FP)
	RET

// func l2sqr4SSE(y, x0, x1, x2, x3 *float32, n int) (d0, d1, d2, d3 float32)
// Row r's chains live in X(2r) and X(2r+1); y's elements are loaded
// once per step and shared by the four rows.
TEXT ·l2sqr4SSE(SB), NOSPLIT, $0-64
	MOVQ  y+0(FP), DI
	MOVQ  x0+8(FP), R8
	MOVQ  x1+16(FP), R9
	MOVQ  x2+24(FP), R10
	MOVQ  x3+32(FP), R11
	MOVQ  n+40(FP), CX
	MOVQ  CX, BX
	ANDQ  $-8, BX
	XORQ  AX, AX
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7

l24loop:
	CMPQ   AX, BX
	JGE    l24tail
	MOVUPS (DI)(AX*4), X8
	MOVUPS 16(DI)(AX*4), X9
	L2STEP(R8, X10, X11, X0, X1)
	L2STEP(R9, X12, X13, X2, X3)
	L2STEP(R10, X10, X11, X4, X5)
	L2STEP(R11, X12, X13, X6, X7)
	ADDQ   $8, AX
	JMP    l24loop

l24tail:
	CMPQ  AX, CX
	JGE   l24reduce
	MOVSS (DI)(AX*4), X8
	L2TAIL(R8, X10, X0)
	L2TAIL(R9, X11, X2)
	L2TAIL(R10, X12, X4)
	L2TAIL(R11, X13, X6)
	INCQ  AX
	JMP   l24tail

l24reduce:
	REDUCE8(X0, X1, X8)
	REDUCE8(X2, X3, X9)
	REDUCE8(X4, X5, X10)
	REDUCE8(X6, X7, X11)
	MOVSS X0, d0+48(FP)
	MOVSS X2, d1+52(FP)
	MOVSS X4, d2+56(FP)
	MOVSS X6, d3+60(FP)
	RET

// func l2sqrSQ8SSE(q *float32, code *byte, mn, st *float32, n int) float32
// Per lane, in the Go body's order: st·c, then mn + that, then q − that,
// then square, then add into the chain.
TEXT ·l2sqrSQ8SSE(SB), NOSPLIT, $0-44
	MOVQ  q+0(FP), SI
	MOVQ  code+8(FP), DX
	MOVQ  mn+16(FP), R8
	MOVQ  st+24(FP), R9
	MOVQ  n+32(FP), CX
	MOVQ  CX, BX
	ANDQ  $-4, BX
	XORQ  AX, AX
	XORPS X0, X0
	PXOR  X9, X9

sq8loop:
	CMPQ   AX, BX
	JGE    sq8tail
	DECODE4(DX, X4)
	MOVUPS (R9)(AX*4), X5
	MULPS  X4, X5
	MOVUPS (R8)(AX*4), X6
	ADDPS  X5, X6
	MOVUPS (SI)(AX*4), X7
	SUBPS  X6, X7
	MULPS  X7, X7
	ADDPS  X7, X0
	ADDQ   $4, AX
	JMP    sq8loop

sq8tail:
	CMPQ     AX, CX
	JGE      sq8reduce
	MOVBLZX  (DX)(AX*1), R10
	CVTSL2SS R10, X4
	MOVSS    (R9)(AX*4), X5
	MULSS    X4, X5
	MOVSS    (R8)(AX*4), X6
	ADDSS    X5, X6
	MOVSS    (SI)(AX*4), X7
	SUBSS    X6, X7
	MULSS    X7, X7
	ADDSS    X7, X0
	INCQ     AX
	JMP      sq8tail

sq8reduce:
	REDUCE4(X0, X1)
	MOVSS X0, ret+40(FP)
	RET

// func dotSQ8SSE(w *float32, code *byte, n int) float32
TEXT ·dotSQ8SSE(SB), NOSPLIT, $0-28
	MOVQ  w+0(FP), SI
	MOVQ  code+8(FP), R8
	MOVQ  n+16(FP), CX
	MOVQ  CX, BX
	ANDQ  $-4, BX
	XORQ  AX, AX
	XORPS X0, X0
	PXOR  X9, X9

dotloop:
	CMPQ   AX, BX
	JGE    dottail
	MOVUPS (SI)(AX*4), X8
	DOTSTEP(R8, X10, X0)
	ADDQ   $4, AX
	JMP    dotloop

dottail:
	CMPQ  AX, CX
	JGE   dotreduce
	MOVSS (SI)(AX*4), X8
	DOTTAIL(R8, DX, X10, X0)
	INCQ  AX
	JMP   dottail

dotreduce:
	REDUCE4(X0, X1)
	MOVSS X0, ret+24(FP)
	RET

// func dotSQ8x4SSE(w *float32, c0, c1, c2, c3 *byte, n int) (d0, d1, d2, d3 float32)
// Code r's chains live in X(r); w's elements are loaded once per step
// and shared by the four codes.
TEXT ·dotSQ8x4SSE(SB), NOSPLIT, $0-64
	MOVQ  w+0(FP), SI
	MOVQ  c0+8(FP), R8
	MOVQ  c1+16(FP), R9
	MOVQ  c2+24(FP), R10
	MOVQ  c3+32(FP), R11
	MOVQ  n+40(FP), CX
	MOVQ  CX, BX
	ANDQ  $-4, BX
	XORQ  AX, AX
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	PXOR  X9, X9

dot4loop:
	CMPQ   AX, BX
	JGE    dot4tail
	MOVUPS (SI)(AX*4), X8
	DOTSTEP(R8, X10, X0)
	DOTSTEP(R9, X11, X1)
	DOTSTEP(R10, X12, X2)
	DOTSTEP(R11, X13, X3)
	ADDQ   $4, AX
	JMP    dot4loop

dot4tail:
	CMPQ  AX, CX
	JGE   dot4reduce
	MOVSS (SI)(AX*4), X8
	DOTTAIL(R8, DX, X10, X0)
	DOTTAIL(R9, DX, X11, X1)
	DOTTAIL(R10, DX, X12, X2)
	DOTTAIL(R11, DX, X13, X3)
	INCQ  AX
	JMP   dot4tail

dot4reduce:
	REDUCE4(X0, X4)
	REDUCE4(X1, X5)
	REDUCE4(X2, X6)
	REDUCE4(X3, X7)
	MOVSS X0, d0+48(FP)
	MOVSS X1, d1+52(FP)
	MOVSS X2, d2+56(FP)
	MOVSS X3, d3+60(FP)
	RET
