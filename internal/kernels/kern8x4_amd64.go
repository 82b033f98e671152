//go:build amd64.v3

package kernels

// kern8x4 is the AVX2/FMA micro-kernel of x86-64-v3 builds
// (kern8x4_amd64.s): rows 0..7 of a (row stride k) against the packed
// 4-column panel into c (row stride n), each element the same
// ascending-l FMA chain from bias (+0 when nil) as kern2x4. It checks
// no bounds: gemmBlockedCols passes slices that cover every element it
// touches, and k ≥ 1.
//
//go:noescape
func kern8x4(k int, a, pack, c []float64, n int, bias []float64)
