//go:build amd64.v3

#include "textflag.h"

// func dwconvQuads(x, lanes, out []float64, taps []int, quads, c0, channels, hw, ohow int, relu bool)
//
// Lane t of Y0 accumulates plane t of the current group of four. Per
// output pixel: Y0 = the bias row at column c0, then per tap of the
// pixel's record in taps, the four planes' inputs at the tap's offset
// (two VMOVSD/VMOVHPD pairs and a VINSERTF128, planes hw apart) times
// the tap's lane row at column c0, VMULPD then VADDPD; with relu set,
// VMAXPD(Y0, +0) as in convTile; then four VMOVSD/VMOVHPD stores,
// planes ohow apart. The next group starts four planes on, with c0 + 4
// reduced mod channels.
TEXT ·dwconvQuads(SB), NOSPLIT, $8-137
	MOVQ x_base+0(FP), SI
	MOVQ out_base+48(FP), DX
	MOVQ quads+96(FP), R14
	MOVQ c0+104(FP), AX
	MOVQ AX, cur-8(SP)

	// R8, R9 = 1 and 3 input planes in bytes; R10, R11 the same for
	// output planes.
	MOVQ hw+120(FP), R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9
	MOVQ ohow+128(FP), R10
	SHLQ $3, R10
	LEAQ (R10)(R10*2), R11
	VXORPD Y15, Y15, Y15

quad:
	// BX = &lanes[c0]; c0 moves on by four planes' channels.
	MOVQ cur-8(SP), AX
	MOVQ lanes_base+24(FP), BX
	LEAQ (BX)(AX*8), BX
	ADDQ $4, AX

wrap:
	CMPQ AX, channels+112(FP)
	JLT  wrapped
	SUBQ channels+112(FP), AX
	JMP  wrap

wrapped:
	MOVQ AX, cur-8(SP)
	MOVQ taps_base+72(FP), R12
	MOVQ ohow+128(FP), R13

pixel:
	VMOVUPD (BX), Y0
	MOVQ    (R12), AX
	ADDQ    $8, R12
	TESTQ   AX, AX
	JZ      epilogue

tap:
	MOVQ        (R12), DI
	MOVQ        8(R12), CX
	ADDQ        SI, DI
	VMOVSD      (DI), X1
	VMOVHPD     (DI)(R8*1), X1, X1
	VMOVSD      (DI)(R8*2), X2
	VMOVHPD     (DI)(R9*1), X2, X2
	VINSERTF128 $1, X2, Y1, Y1
	VMULPD      (BX)(CX*1), Y1, Y1
	VADDPD      Y1, Y0, Y0
	ADDQ        $16, R12
	DECQ        AX
	JNZ         tap

epilogue:
	CMPB   relu+136(FP), $0
	JEQ    store
	VMAXPD Y15, Y0, Y0

store:
	VMOVSD       X0, (DX)
	VMOVHPD      X0, (DX)(R10*1)
	VEXTRACTF128 $1, Y0, X1
	VMOVSD       X1, (DX)(R10*2)
	VMOVHPD      X1, (DX)(R11*1)
	ADDQ         $8, DX
	DECQ         R13
	JNZ          pixel

	// DX has passed one output plane; the next group starts three more
	// on, and its input four planes on.
	ADDQ R11, DX
	LEAQ (SI)(R8*4), SI
	DECQ R14
	JNZ  quad

	VZEROUPPER
	RET
