//go:build !amd64

package scheduler

// Non-amd64 builds always take the scalar scan (cpufeat reports no
// AVX-512 there); results are identical.
func fitScanAVX512(q0, q1, q2 *float64, blocks int, d0, d1, d2 float64, out *int32, base int32) int32 {
	return 0
}
