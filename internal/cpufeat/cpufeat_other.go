//go:build !amd64

package cpufeat

// No assembly kernels exist off amd64.
const (
	HasAVX2        = false
	HasFMA         = false
	HasAVX512FDQVL = false
)
