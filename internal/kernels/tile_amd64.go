//go:build amd64.v3

package kernels

// convTile is the AVX2/FMA kernel of x86-64-v3 builds (tile_amd64.s):
// 8 output channels × 4 output pixels into c (row stride n), each
// element c[r*n+t] the ascending-l FMA chain of wp[8+8l+r] ·
// x[loff[l]+off[t]] from the bias row wp[r], then the ReLU epilogue
// when relu is set, as in the Go body. It checks no bounds: Conv's
// tiles passes slices that cover every element it touches, and k ≥ 1.
//
//go:noescape
func convTile(k int, wp, x []float64, loff, off []int, c []float64, n int, relu bool)
