#include "textflag.h"

// SIMD micro-kernels. The numerical contract (ascending p, no FMA, lane
// layout of dot; and the Sigmoid rule, the one place FMA appears because
// math.Exp's amd64 path uses it) is written down in kernel.go; read it
// before editing.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpy4AVX2(y, x *float32, stride, n uintptr, s *[4]float32)
//
// y[i] = (((y[i] + s0*x0[i]) + s1*x1[i]) + s2*x2[i]) + s3*x3[i] for i < n,
// eight columns per YMM register. Each product is rounded by VMULPS before
// VADDPS adds it, exactly as MULSS/ADDSS do in the scalar loop.
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-40
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ stride+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ s+32(FP), AX
	VBROADCASTSS 0(AX), Y12
	VBROADCASTSS 4(AX), Y13
	VBROADCASTSS 8(AX), Y14
	VBROADCASTSS 12(AX), Y15
	SHLQ $2, DX              // stride in bytes
	SHLQ $2, CX              // n in bytes
	LEAQ (SI)(DX*1), R8      // x1
	LEAQ (R8)(DX*1), R9      // x2
	LEAQ (R9)(DX*1), R10     // x3
	MOVQ CX, R11
	ANDQ $-128, R11          // bytes covered by whole 32-column blocks
	XORQ AX, AX              // byte offset into every row
	CMPQ AX, R11
	JGE  tail8

	// Four independent 8-column tiles per iteration hide the latency of the
	// four dependent adds each tile goes through.
loop32:
	VMOVUPS (DI)(AX*1), Y0
	VMOVUPS 32(DI)(AX*1), Y1
	VMOVUPS 64(DI)(AX*1), Y2
	VMOVUPS 96(DI)(AX*1), Y3

	VMULPS (SI)(AX*1), Y12, Y4
	VMULPS 32(SI)(AX*1), Y12, Y5
	VMULPS 64(SI)(AX*1), Y12, Y6
	VMULPS 96(SI)(AX*1), Y12, Y7
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	VADDPS Y6, Y2, Y2
	VADDPS Y7, Y3, Y3

	VMULPS (R8)(AX*1), Y13, Y4
	VMULPS 32(R8)(AX*1), Y13, Y5
	VMULPS 64(R8)(AX*1), Y13, Y6
	VMULPS 96(R8)(AX*1), Y13, Y7
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	VADDPS Y6, Y2, Y2
	VADDPS Y7, Y3, Y3

	VMULPS (R9)(AX*1), Y14, Y4
	VMULPS 32(R9)(AX*1), Y14, Y5
	VMULPS 64(R9)(AX*1), Y14, Y6
	VMULPS 96(R9)(AX*1), Y14, Y7
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	VADDPS Y6, Y2, Y2
	VADDPS Y7, Y3, Y3

	VMULPS (R10)(AX*1), Y15, Y4
	VMULPS 32(R10)(AX*1), Y15, Y5
	VMULPS 64(R10)(AX*1), Y15, Y6
	VMULPS 96(R10)(AX*1), Y15, Y7
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	VADDPS Y6, Y2, Y2
	VADDPS Y7, Y3, Y3

	VMOVUPS Y0, (DI)(AX*1)
	VMOVUPS Y1, 32(DI)(AX*1)
	VMOVUPS Y2, 64(DI)(AX*1)
	VMOVUPS Y3, 96(DI)(AX*1)
	ADDQ $128, AX
	CMPQ AX, R11
	JLT  loop32

tail8:
	CMPQ AX, CX
	JGE  done

loop8:
	VMOVUPS (DI)(AX*1), Y0
	VMULPS (SI)(AX*1), Y12, Y4
	VADDPS Y4, Y0, Y0
	VMULPS (R8)(AX*1), Y13, Y5
	VADDPS Y5, Y0, Y0
	VMULPS (R9)(AX*1), Y14, Y6
	VADDPS Y6, Y0, Y0
	VMULPS (R10)(AX*1), Y15, Y7
	VADDPS Y7, Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  loop8

done:
	VZEROUPPER
	RET

// func dot4SSE(out *[4]float32, x, y *float32, stride, n uintptr)
//
// X0..X3 accumulate rows 0..3. Lane l of an accumulator is the scalar
// loop's partial sum s_l (elements with i%4 == l), so after a 4×4 transpose
// the three ADDPS below compute ((s0+s1)+s2)+s3 for all four rows at once.
TEXT ·dot4SSE(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), R8
	MOVQ stride+24(FP), DX
	MOVQ n+32(FP), CX
	SHLQ $2, DX              // stride in bytes
	SHLQ $2, CX              // n in bytes
	LEAQ (R8)(DX*1), R9      // y1
	LEAQ (R9)(DX*1), R10     // y2
	LEAQ (R10)(DX*1), R11    // y3
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORQ AX, AX              // byte offset into every row

loop4:
	MOVUPS (SI)(AX*1), X4
	MOVUPS (R8)(AX*1), X5
	MOVUPS (R9)(AX*1), X6
	MOVUPS (R10)(AX*1), X7
	MOVUPS (R11)(AX*1), X8
	MULPS  X4, X5
	MULPS  X4, X6
	MULPS  X4, X7
	MULPS  X4, X8
	ADDPS  X5, X0
	ADDPS  X6, X1
	ADDPS  X7, X2
	ADDPS  X8, X3
	ADDQ   $16, AX
	CMPQ   AX, CX
	JLT    loop4

	// Transpose: rows (a, b, c, d) of lane sums -> lanes (T0, T1, T2, T3) of
	// row sums, T_l = (a_l, b_l, c_l, d_l).
	MOVAPS   X0, X4
	UNPCKLPS X1, X4          // a0 b0 a1 b1
	UNPCKHPS X1, X0          // a2 b2 a3 b3
	MOVAPS   X2, X5
	UNPCKLPS X3, X5          // c0 d0 c1 d1
	UNPCKHPS X3, X2          // c2 d2 c3 d3
	MOVAPS   X4, X6
	MOVLHPS  X5, X6          // T0 = a0 b0 c0 d0
	MOVHLPS  X4, X5          // T1 = a1 b1 c1 d1
	MOVAPS   X0, X7
	MOVLHPS  X2, X7          // T2 = a2 b2 c2 d2
	MOVHLPS  X0, X2          // T3 = a3 b3 c3 d3
	ADDPS    X5, X6          // s0+s1
	ADDPS    X7, X6          // (s0+s1)+s2
	ADDPS    X2, X6          // ((s0+s1)+s2)+s3
	MOVUPS   X6, (DI)
	RET

// func adamAVX2(w, grad, m, v *float32, n uintptr, k *[6]float32)
//
// adamScalar, eight elements per YMM register: every VMULPS result is rounded
// before VADDPS uses it, VSQRTPS and VDIVPS round as SQRTSS and DIVSS do, and
// the operations of one element keep the scalar order. Two independent
// 8-element tiles per iteration overlap one's divide with the other's square
// root.
TEXT ·adamAVX2(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ n+32(FP), CX
	MOVQ k+40(FP), AX
	VBROADCASTSS 0(AX), Y10  // b1
	VBROADCASTSS 4(AX), Y11  // 1-b1
	VBROADCASTSS 8(AX), Y12  // b2
	VBROADCASTSS 12(AX), Y13 // 1-b2
	VBROADCASTSS 16(AX), Y14 // step
	VBROADCASTSS 20(AX), Y15 // eps
	SHLQ $2, CX              // n in bytes
	MOVQ CX, R11
	ANDQ $-64, R11           // bytes covered by whole 16-element blocks
	XORQ AX, AX              // byte offset into every operand
	CMPQ AX, R11
	JGE  adamtail

adam16:
	VMOVUPS (SI)(AX*1), Y0       // g
	VMOVUPS 32(SI)(AX*1), Y5
	VMULPS  (R8)(AX*1), Y10, Y1  // b1*m
	VMULPS  32(R8)(AX*1), Y10, Y6
	VMULPS  Y0, Y11, Y2          // (1-b1)*g
	VMULPS  Y5, Y11, Y7
	VADDPS  Y2, Y1, Y1           // m
	VADDPS  Y7, Y6, Y6
	VMOVUPS Y1, (R8)(AX*1)
	VMOVUPS Y6, 32(R8)(AX*1)
	VMULPS  (R9)(AX*1), Y12, Y2  // b2*v
	VMULPS  32(R9)(AX*1), Y12, Y7
	VMULPS  Y0, Y13, Y3          // (1-b2)*g
	VMULPS  Y5, Y13, Y8
	VMULPS  Y0, Y3, Y3           // ((1-b2)*g)*g
	VMULPS  Y5, Y8, Y8
	VADDPS  Y3, Y2, Y2           // v
	VADDPS  Y8, Y7, Y7
	VMOVUPS Y2, (R9)(AX*1)
	VMOVUPS Y7, 32(R9)(AX*1)
	VMULPS  Y1, Y14, Y1          // step*m
	VMULPS  Y6, Y14, Y6
	VSQRTPS Y2, Y2
	VSQRTPS Y7, Y7
	VADDPS  Y15, Y2, Y2          // sqrt(v)+eps
	VADDPS  Y15, Y7, Y7
	VDIVPS  Y2, Y1, Y1           // (step*m)/(sqrt(v)+eps)
	VDIVPS  Y7, Y6, Y6
	VMOVUPS (DI)(AX*1), Y3
	VMOVUPS 32(DI)(AX*1), Y8
	VSUBPS  Y1, Y3, Y3           // w - that
	VSUBPS  Y6, Y8, Y8
	VMOVUPS Y3, (DI)(AX*1)
	VMOVUPS Y8, 32(DI)(AX*1)
	ADDQ $64, AX
	CMPQ AX, R11
	JLT  adam16

adamtail:
	CMPQ AX, CX
	JGE  adamdone
	VMOVUPS (SI)(AX*1), Y0
	VMULPS  (R8)(AX*1), Y10, Y1
	VMULPS  Y0, Y11, Y2
	VADDPS  Y2, Y1, Y1
	VMOVUPS Y1, (R8)(AX*1)
	VMULPS  (R9)(AX*1), Y12, Y2
	VMULPS  Y0, Y13, Y3
	VMULPS  Y0, Y3, Y3
	VADDPS  Y3, Y2, Y2
	VMOVUPS Y2, (R9)(AX*1)
	VMULPS  Y1, Y14, Y1
	VSQRTPS Y2, Y2
	VADDPS  Y15, Y2, Y2
	VDIVPS  Y2, Y1, Y1
	VMOVUPS (DI)(AX*1), Y3
	VSUBPS  Y1, Y3, Y3
	VMOVUPS Y3, (DI)(AX*1)

adamdone:
	VZEROUPPER
	RET

// Constants of the sigmoid kernel, each repeated across a 32-byte vector.
// The float64 ones are those of math's amd64 exp (src/math/exp_amd64.s),
// written the same way so the assembler rounds them to the same bits.
#define SPLAT(off, v) DATA sigk<>+(off)(SB)/8, v; DATA sigk<>+(off+8)(SB)/8, v; DATA sigk<>+(off+16)(SB)/8, v; DATA sigk<>+(off+24)(SB)/8, v
SPLAT(0, $1.4426950408889634073599246810018920)          // LOG2E
SPLAT(32, $0.69314718055966295651160180568695068359375)  // LN2U
SPLAT(64, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
SPLAT(96, $0.0625)
SPLAT(128, $2.4801587301587301587e-5)                    // Taylor coefficients, highest first
SPLAT(160, $1.9841269841269841270e-4)
SPLAT(192, $1.3888888888888888889e-3)
SPLAT(224, $8.3333333333333333333e-3)
SPLAT(256, $4.1666666666666666667e-2)
SPLAT(288, $1.6666666666666666667e-1)
SPLAT(320, $0.5)
SPLAT(352, $1.0)
SPLAT(384, $2.0)
SPLAT(416, $1023)                                        // exponent bias, int64
SPLAT(448, $0x8000000080000000)                          // float32 sign bits
SPLAT(480, $0x7fffffff7fffffff)                          // float32 magnitude bits
SPLAT(512, $0x4431000044310000)                          // float32 708.0
GLOBL sigk<>(SB), (NOPTR+RODATA), $544

// EXP4 sets the four float64 lanes of x to e^x, each |x| ≤ 708, by the
// operations math.Exp's FMA path performs on one: n = round(x·LOG2E) (the
// default MXCSR rounds as CVTSD2SL does); x −= n·LN2U and x −= n·LN2L, each
// fused; x /= 16; the Horner chain p = p·x + c, fused, from the highest
// coefficient; x = x·p; x = x·(x+2) three times; x = x·(x+2) + 1, fused; and
// x·2ⁿ, with 2ⁿ built by adding n to the exponent field of 1. t is scratch;
// ny and nx are the YMM and XMM names of one more scratch register.
#define EXP4(x, t, ny, nx) \
	VMULPD       sigk<>+0(SB), x, t    \
	VCVTPD2DQY   t, nx                 \
	VCVTDQ2PD    nx, t                 \
	VFNMADD231PD sigk<>+32(SB), t, x   \
	VFNMADD231PD sigk<>+64(SB), t, x   \
	VMULPD       sigk<>+96(SB), x, x   \
	VMOVUPD      sigk<>+128(SB), t     \
	VFMADD213PD  sigk<>+160(SB), x, t  \
	VFMADD213PD  sigk<>+192(SB), x, t  \
	VFMADD213PD  sigk<>+224(SB), x, t  \
	VFMADD213PD  sigk<>+256(SB), x, t  \
	VFMADD213PD  sigk<>+288(SB), x, t  \
	VFMADD213PD  sigk<>+320(SB), x, t  \
	VFMADD213PD  sigk<>+352(SB), x, t  \
	VMULPD       t, x, x               \
	VADDPD       sigk<>+384(SB), x, t  \
	VMULPD       t, x, x               \
	VADDPD       sigk<>+384(SB), x, t  \
	VMULPD       t, x, x               \
	VADDPD       sigk<>+384(SB), x, t  \
	VMULPD       t, x, x               \
	VADDPD       sigk<>+384(SB), x, t  \
	VFMADD213PD  sigk<>+352(SB), t, x  \
	VPMOVSXDQ    nx, ny                \
	VPADDQ       sigk<>+416(SB), ny, ny \
	VPSLLQ       $52, ny, ny           \
	VMULPD       ny, x, x

// SIGMOID4 sets the four float64 lanes of x to 1/(1+e^x): EXP4, then 1+e
// and the division, each rounded as ADDSD and DIVSD round.
#define SIGMOID4(x, t, ny, nx) \
	EXP4(x, t, ny, nx)                 \
	VADDPD       sigk<>+352(SB), x, x  \
	VMOVUPD      sigk<>+352(SB), t     \
	VDIVPD       x, t, x

// func sigmoidAVX2(dst, src *float32, n uintptr) uintptr
//
// dst[i] = float32(1/(1+math.Exp(-float64(src[i])))) for the groups of four
// from the start of src, n a multiple of 4, up to the first group holding a
// lane with |src[i]| > 708 or a NaN: the return value is the number of
// elements done. Lanes are widened exactly (VCVTPS2PD), negated, put through
// SIGMOID4 and rounded once to float32 (VCVTPD2PS), as CVTSD2SS rounds. Two
// groups go per iteration while both are in range.
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHLQ $2, CX              // n in bytes
	XORQ AX, AX              // byte offset into src and dst

sigloop:
	LEAQ 32(AX), DX
	CMPQ DX, CX
	JGT  sigone              // fewer than eight left
	VMOVUPS (SI)(AX*1), Y0
	VANDPS  sigk<>+480(SB), Y0, Y1
	VCMPPS  $0x16, sigk<>+512(SB), Y1, Y1 // |v| > 708 or unordered
	VPTEST  Y1, Y1
	JNZ     sigone           // one of the two groups leaves the kernel
	VXORPS  sigk<>+448(SB), Y0, Y0        // x = −v
	VCVTPS2PD    X0, Y2
	VEXTRACTF128 $1, Y0, X3
	VCVTPS2PD    X3, Y3
	SIGMOID4(Y2, Y4, Y5, X5)
	SIGMOID4(Y3, Y6, Y7, X7)
	VCVTPD2PSY Y2, X2
	VCVTPD2PSY Y3, X3
	VMOVUPS X2, (DI)(AX*1)
	VMOVUPS X3, 16(DI)(AX*1)
	ADDQ $32, AX
	JMP  sigloop

sigone:
	CMPQ AX, CX
	JGE  sigdone
	VMOVUPS (SI)(AX*1), X0
	VANDPS  sigk<>+480(SB), X0, X1
	VCMPPS  $0x16, sigk<>+512(SB), X1, X1
	VPTEST  X1, X1
	JNZ     sigdone          // this group is the caller's
	VXORPS  sigk<>+448(SB), X0, X0
	VCVTPS2PD X0, Y2
	SIGMOID4(Y2, Y4, Y5, X5)
	VCVTPD2PSY Y2, X2
	VMOVUPS X2, (DI)(AX*1)
	ADDQ $16, AX
	JMP  sigloop

sigdone:
	SHRQ $2, AX
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func expAVX2(dst, src *float64, n uintptr)
//
// dst[i] = math.Exp(src[i]) through EXP4, four at a time; n is a positive
// multiple of 4 and every |src[i]| ≤ 708. Only the tests call it: it holds
// sigmoidAVX2's exponential to math.Exp bit for bit in float64, where a
// change that a float32 result would hide still shows.
TEXT ·expAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHLQ $3, CX              // n in bytes
	XORQ AX, AX

exploop:
	VMOVUPD (SI)(AX*1), Y0
	EXP4(Y0, Y1, Y2, X2)
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  exploop
	VZEROUPPER
	RET
