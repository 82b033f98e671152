//go:build !amd64.v3

package kernels

import "math"

// convTile computes 8 output channels × 4 output pixels into c (row
// stride n): c[r*n+t] = FMA chain over l ascending of wp[8+8l+r] ·
// x[loff[l]+off[t]], from the bias row wp[r]. Each step l loads its 4
// activations and 8 weights once for 32 FMAs into an accumulator
// array, unrolled. Below x86-64-v3 every math.FMA carries a CPU-feature
// branch with a call fallback, around which register-held accumulators
// are spilled anyway; this layout measured faster there than a 2×4
// tile of scalar accumulators. With relu set, the ReLU epilogue masks
// each sum before the store. On x86-64-v3 builds an AVX2 body
// (tile_amd64.s) replaces it with the same bits. It needs k ≥ 1.
func convTile(k int, wp, x []float64, loff, off []int, c []float64, n int, relu bool) {
	var a [32]float64 // a[4r+t]: channel r, pixel t
	for r := 0; r < 8; r++ {
		a[4*r], a[4*r+1], a[4*r+2], a[4*r+3] = wp[r], wp[r], wp[r], wp[r]
	}
	o0, o1, o2, o3 := off[0], off[1], off[2], off[3]
	ws := wp[8:]
	for l, lo := range loff[:k] {
		w := (*[8]float64)(ws[8*l:])
		x0, x1, x2, x3 := x[lo+o0], x[lo+o1], x[lo+o2], x[lo+o3]
		a[0] = math.FMA(w[0], x0, a[0])
		a[1] = math.FMA(w[0], x1, a[1])
		a[2] = math.FMA(w[0], x2, a[2])
		a[3] = math.FMA(w[0], x3, a[3])
		a[4] = math.FMA(w[1], x0, a[4])
		a[5] = math.FMA(w[1], x1, a[5])
		a[6] = math.FMA(w[1], x2, a[6])
		a[7] = math.FMA(w[1], x3, a[7])
		a[8] = math.FMA(w[2], x0, a[8])
		a[9] = math.FMA(w[2], x1, a[9])
		a[10] = math.FMA(w[2], x2, a[10])
		a[11] = math.FMA(w[2], x3, a[11])
		a[12] = math.FMA(w[3], x0, a[12])
		a[13] = math.FMA(w[3], x1, a[13])
		a[14] = math.FMA(w[3], x2, a[14])
		a[15] = math.FMA(w[3], x3, a[15])
		a[16] = math.FMA(w[4], x0, a[16])
		a[17] = math.FMA(w[4], x1, a[17])
		a[18] = math.FMA(w[4], x2, a[18])
		a[19] = math.FMA(w[4], x3, a[19])
		a[20] = math.FMA(w[5], x0, a[20])
		a[21] = math.FMA(w[5], x1, a[21])
		a[22] = math.FMA(w[5], x2, a[22])
		a[23] = math.FMA(w[5], x3, a[23])
		a[24] = math.FMA(w[6], x0, a[24])
		a[25] = math.FMA(w[6], x1, a[25])
		a[26] = math.FMA(w[6], x2, a[26])
		a[27] = math.FMA(w[6], x3, a[27])
		a[28] = math.FMA(w[7], x0, a[28])
		a[29] = math.FMA(w[7], x1, a[29])
		a[30] = math.FMA(w[7], x2, a[30])
		a[31] = math.FMA(w[7], x3, a[31])
	}
	if relu {
		for i, v := range a {
			a[i] = ReLU(v)
		}
	}
	for r := 0; r < 8; r++ {
		copy(c[r*n:r*n+4], a[4*r:])
	}
}

// newDWPack prepares DWConv. Below x86-64-v3 the Go body runs every
// plane from w and bias, so there is nothing to pack.
func newDWPack(g ConvGeom, channels int, w, bias []float64, _ bool) dwPack {
	return dwPack{g: g, channels: channels, w: w, bias: bias}
}

// planes computes planes [p0, p1) with the Go body.
func (d *dwPack) planes(x, out []float64, p0, p1 int, relu bool) {
	dwconvHoisted(d.g, p0, p1, d.channels, x, d.w, d.bias, out, relu)
}

func (d *dwPack) release() {}

// maxPool runs MaxPool's Go body below x86-64-v3.
func maxPool(g ConvGeom, p0, p1 int, x, out []float64) { maxPoolPlanes(g, p0, p1, x, out) }
