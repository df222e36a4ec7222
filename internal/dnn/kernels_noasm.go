//go:build !amd64

package dnn

// cpufeat reports no AVX2 off amd64, so these are never called.

func layerAccAVX2(w, b, prev, acc *float64, in, out int) {}

func backpropUpdateAVX2(w, b, delta, prev, tmp *float64, in, out int, rate float64) {}

func sgdUpdateAVX2(w, b, delta, prev *float64, in, out int, rate float64) {}
