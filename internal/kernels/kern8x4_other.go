//go:build !amd64.v3

package kernels

// kern8x4 computes rows 0..7 of a (row stride k) against the packed
// 4-column panel into c (row stride n) as four kern2x4 calls. On
// x86-64-v3 builds an AVX2 body (kern8x4_amd64.s) replaces it with the
// same bits.
func kern8x4(k int, a, pack, c []float64, n int, bias []float64) {
	for r := 0; r < 8; r += 2 {
		b0, b1 := 0.0, 0.0
		if bias != nil {
			b0, b1 = bias[r], bias[r+1]
		}
		kern2x4(k, a[r*k:(r+1)*k], a[(r+1)*k:(r+2)*k], pack,
			c[r*n:r*n+nr], c[(r+1)*n:(r+1)*n+nr], b0, b1)
	}
}
