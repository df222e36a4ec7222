//go:build amd64

package dnn

// The AVX2 tier (kernels_amd64.s). in and out are the layer's fan-in and
// fan-out; all slices are passed as their first element.

//go:noescape
func forwardLayerAVX2(w, b, prev, cur *float64, in, out int) (done int)

//go:noescape
func backpropUpdateAVX2(w, b, delta, prev, tmp *float64, in, out int, rate float64)

//go:noescape
func sgdUpdateAVX2(w, b, delta, prev *float64, in, out int, rate float64)
