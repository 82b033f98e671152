//go:build amd64.v3

#include "textflag.h"

// func convTile(k int, wp, x []float64, loff, off []int, c []float64, n int, relu bool)
//
// 8 output channels × 4 output pixels. Y0..Y7 each hold 4 channels of
// one pixel: Y(2t) channels 0..3 and Y(2t+1) channels 4..7 of pixel t,
// starting from the packed bias row. Each step l, in ascending order,
// loads the 8 packed weights of l (two 32-byte loads) and loff[l] once,
// broadcasts x[loff[l]+off[t]] for the 4 pixels, and does one
// VFMADD231PD per accumulator, so every lane runs the Go body's chain
// acc = FMA(w, x, acc). With relu set, the epilogue then takes
// VMAXPD(acc, +0) of each accumulator. Two 4×4 transposes then store 8
// rows of 4 pixels at stride n. The Go caller has checked every range
// read or written, and k ≥ 1.
TEXT ·convTile(SB), NOSPLIT, $0-137
	MOVQ k+0(FP), CX
	MOVQ wp_base+8(FP), BX
	MOVQ x_base+32(FP), SI
	MOVQ loff_base+56(FP), DI
	MOVQ off_base+80(FP), AX
	MOVQ c_base+104(FP), DX
	MOVQ n+128(FP), R11

	// R8, R9, R10, R12 = &x[off[t]] for pixels t = 0..3.
	MOVQ 0(AX), R8
	LEAQ (SI)(R8*8), R8
	MOVQ 8(AX), R9
	LEAQ (SI)(R9*8), R9
	MOVQ 16(AX), R10
	LEAQ (SI)(R10*8), R10
	MOVQ 24(AX), R12
	LEAQ (SI)(R12*8), R12

	VMOVUPD 0(BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVAPD Y0, Y2
	VMOVAPD Y1, Y3
	VMOVAPD Y0, Y4
	VMOVAPD Y1, Y5
	VMOVAPD Y0, Y6
	VMOVAPD Y1, Y7
	ADDQ    $64, BX

loop:
	MOVQ         (DI), AX
	VMOVUPD      0(BX), Y8
	VMOVUPD      32(BX), Y9
	VBROADCASTSD (R8)(AX*8), Y10
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VBROADCASTSD (R9)(AX*8), Y11
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VBROADCASTSD (R10)(AX*8), Y12
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VBROADCASTSD (R12)(AX*8), Y13
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	ADDQ         $8, DI
	ADDQ         $64, BX
	DECQ         CX
	JNZ          loop

	// The ReLU epilogue. VMAXPD returns its first source when that is
	// greater and its second otherwise, so a lane keeps acc > +0 and
	// takes Y8's +0 when acc is ≤ 0, −0 or NaN: kernels.ReLU's bits. A
	// lane-wise max commutes with the transposes below.
	CMPB relu+136(FP), $0
	JEQ  store
	VXORPD Y8, Y8, Y8
	VMAXPD Y8, Y0, Y0
	VMAXPD Y8, Y1, Y1
	VMAXPD Y8, Y2, Y2
	VMAXPD Y8, Y3, Y3
	VMAXPD Y8, Y4, Y4
	VMAXPD Y8, Y5, Y5
	VMAXPD Y8, Y6, Y6
	VMAXPD Y8, Y7, Y7

store:
	// Row strides in bytes: R11 = 8n, R13 = 3·8n.
	SHLQ $3, R11
	LEAQ (R11)(R11*2), R13

	// Channels 0..3: transpose Y0, Y2, Y4, Y6 (pixels 0..3) into rows.
	VUNPCKLPD  Y2, Y0, Y8
	VUNPCKHPD  Y2, Y0, Y9
	VUNPCKLPD  Y6, Y4, Y10
	VUNPCKHPD  Y6, Y4, Y11
	VPERM2F128 $0x20, Y10, Y8, Y12
	VPERM2F128 $0x20, Y11, Y9, Y13
	VMOVUPD    Y12, (DX)
	VMOVUPD    Y13, (DX)(R11*1)
	VPERM2F128 $0x31, Y10, Y8, Y12
	VPERM2F128 $0x31, Y11, Y9, Y13
	VMOVUPD    Y12, (DX)(R11*2)
	VMOVUPD    Y13, (DX)(R13*1)

	// Channels 4..7 from Y1, Y3, Y5, Y7, four rows further on.
	LEAQ       (DX)(R11*4), DX
	VUNPCKLPD  Y3, Y1, Y8
	VUNPCKHPD  Y3, Y1, Y9
	VUNPCKLPD  Y7, Y5, Y10
	VUNPCKHPD  Y7, Y5, Y11
	VPERM2F128 $0x20, Y10, Y8, Y12
	VPERM2F128 $0x20, Y11, Y9, Y13
	VMOVUPD    Y12, (DX)
	VMOVUPD    Y13, (DX)(R11*1)
	VPERM2F128 $0x31, Y10, Y8, Y12
	VPERM2F128 $0x31, Y11, Y9, Y13
	VMOVUPD    Y12, (DX)(R11*2)
	VMOVUPD    Y13, (DX)(R13*1)

	VZEROUPPER
	RET
