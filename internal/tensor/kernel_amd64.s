#include "textflag.h"

// SIMD micro-kernels. The numerical contract (ascending p, no FMA, lane
// layout of dot) is written down in kernel.go; read it before editing.

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
