//go:build amd64.v3

#include "textflag.h"

// func kern8x4(k int, a, pack, c []float64, n int, bias []float64)
//
// Rows 0..7 of a (row stride k) against the packed 4-column panel
// (pack[l*4+t]) into c (row stride n). Y0..Y7 hold one row each, its
// four lanes the panel's four columns, starting from the row's bias
// broadcast (+0 when bias is nil). Each step l, in ascending order,
// loads the panel quad once and does one VFMADD231PD per row, so every
// lane runs kern2x4's chain acc = FMA(a, b, acc). The Go caller has
// checked every range read or written, and k ≥ 1.
TEXT ·kern8x4(SB), NOSPLIT, $0-112
	MOVQ k+0(FP), CX
	MOVQ a_base+8(FP), SI
	MOVQ pack_base+32(FP), BX
	MOVQ c_base+56(FP), DX
	MOVQ n+80(FP), R11
	MOVQ bias_base+88(FP), AX

	// Row strides in bytes: R8 = 8k and R9 = 3·8k for a, R11 = 8n and
	// R12 = 3·8n for c. DI and R10 address rows 4..7.
	MOVQ CX, R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9
	LEAQ (SI)(R8*4), DI
	SHLQ $3, R11
	LEAQ (R11)(R11*2), R12
	LEAQ (DX)(R11*4), R10

	TESTQ AX, AX
	JZ    nobias
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	VBROADCASTSD 32(AX), Y4
	VBROADCASTSD 40(AX), Y5
	VBROADCASTSD 48(AX), Y6
	VBROADCASTSD 56(AX), Y7
	JMP  loop

nobias:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

loop:
	VMOVUPD      (BX), Y8
	VBROADCASTSD (SI), Y9
	VFMADD231PD  Y8, Y9, Y0
	VBROADCASTSD (SI)(R8*1), Y10
	VFMADD231PD  Y8, Y10, Y1
	VBROADCASTSD (SI)(R8*2), Y11
	VFMADD231PD  Y8, Y11, Y2
	VBROADCASTSD (SI)(R9*1), Y12
	VFMADD231PD  Y8, Y12, Y3
	VBROADCASTSD (DI), Y9
	VFMADD231PD  Y8, Y9, Y4
	VBROADCASTSD (DI)(R8*1), Y10
	VFMADD231PD  Y8, Y10, Y5
	VBROADCASTSD (DI)(R8*2), Y11
	VFMADD231PD  Y8, Y11, Y6
	VBROADCASTSD (DI)(R9*1), Y12
	VFMADD231PD  Y8, Y12, Y7
	ADDQ         $8, SI
	ADDQ         $8, DI
	ADDQ         $32, BX
	DECQ         CX
	JNZ          loop

	VMOVUPD Y0, (DX)
	VMOVUPD Y1, (DX)(R11*1)
	VMOVUPD Y2, (DX)(R11*2)
	VMOVUPD Y3, (DX)(R12*1)
	VMOVUPD Y4, (R10)
	VMOVUPD Y5, (R10)(R11*1)
	VMOVUPD Y6, (R10)(R11*2)
	VMOVUPD Y7, (R10)(R12*1)
	VZEROUPPER
	RET
