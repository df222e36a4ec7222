//go:build !amd64

package dnn

// cpufeat reports no AVX2 off amd64, so these are never called.

func forwardLayerAVX2(w, b, prev, cur *float64, in, out int) (done int) { return 0 }

func backpropUpdateAVX2(w, b, delta, prev, tmp *float64, in, out int, rate float64) {}

func sgdUpdateAVX2(w, b, delta, prev *float64, in, out int, rate float64) {}
