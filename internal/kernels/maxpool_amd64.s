//go:build amd64.v3

#include "textflag.h"

// func maxPool2x2(x, out []float64, planes, w, oh, ow, hw int)
//
// Per output row, R8 is input row 2·oy, AX and BX walk rows 2·oy and
// 2·oy+1, and DI the output. Four pixels read 8 inputs of each row as
// two vectors; VUNPCKLPD and VUNPCKHPD split them into each pixel's
// kw = 0 and kw = 1 values, in pixel order 0, 2, 1, 3, which VPERMPD
// restores after the four VMAXPDs. Two pixels do the same in 128-bit
// halves, and a last pixel with VMAXSD. Each VMAXPD takes the window
// value as its first source and the best so far as its second, so it
// returns the value only when it is greater.
TEXT ·maxPool2x2(SB), NOSPLIT, $0-88
	MOVQ x_base+0(FP), SI
	MOVQ out_base+24(FP), DI
	MOVQ planes+48(FP), CX
	MOVQ w+56(FP), R12
	SHLQ $3, R12
	MOVQ hw+80(FP), R13
	SHLQ $3, R13
	MOVQ $0xfff0000000000000, AX
	MOVQ AX, X15
	VBROADCASTSD X15, Y15

plane:
	MOVQ SI, R8
	MOVQ oh+64(FP), DX

row:
	MOVQ R8, AX
	LEAQ (R8)(R12*1), BX
	MOVQ ow+72(FP), R9

four:
	CMPQ      R9, $4
	JLT       two
	VMOVUPD   (AX), Y0
	VMOVUPD   32(AX), Y1
	VMOVUPD   (BX), Y2
	VMOVUPD   32(BX), Y3
	VUNPCKLPD Y1, Y0, Y4
	VUNPCKHPD Y1, Y0, Y5
	VUNPCKLPD Y3, Y2, Y6
	VUNPCKHPD Y3, Y2, Y7
	VMAXPD    Y15, Y4, Y8
	VMAXPD    Y8, Y5, Y8
	VMAXPD    Y8, Y6, Y8
	VMAXPD    Y8, Y7, Y8
	VPERMPD   $0xd8, Y8, Y8
	VMOVUPD   Y8, (DI)
	ADDQ      $64, AX
	ADDQ      $64, BX
	ADDQ      $32, DI
	SUBQ      $4, R9
	JMP       four

two:
	CMPQ         R9, $2
	JLT          one
	VMOVUPD      (AX), Y0
	VMOVUPD      (BX), Y2
	VEXTRACTF128 $1, Y0, X1
	VEXTRACTF128 $1, Y2, X3
	VUNPCKLPD    X1, X0, X4
	VUNPCKHPD    X1, X0, X5
	VUNPCKLPD    X3, X2, X6
	VUNPCKHPD    X3, X2, X7
	VMAXPD       X15, X4, X8
	VMAXPD       X8, X5, X8
	VMAXPD       X8, X6, X8
	VMAXPD       X8, X7, X8
	VMOVUPD      X8, (DI)
	ADDQ         $32, AX
	ADDQ         $32, BX
	ADDQ         $16, DI
	SUBQ         $2, R9

one:
	TESTQ  R9, R9
	JZ     nextrow
	VMOVSD (AX), X4
	VMOVSD 8(AX), X5
	VMOVSD (BX), X6
	VMOVSD 8(BX), X7
	VMAXSD X15, X4, X8
	VMAXSD X8, X5, X8
	VMAXSD X8, X6, X8
	VMAXSD X8, X7, X8
	VMOVSD X8, (DI)
	ADDQ   $8, DI

nextrow:
	LEAQ (R8)(R12*2), R8
	DECQ DX
	JNZ  row
	ADDQ R13, SI
	DECQ CX
	JNZ  plane

	VZEROUPPER
	RET
