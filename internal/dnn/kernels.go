package dnn

import "repro/internal/cpufeat"

// The three primitives every forward pass and SGD step is made of. Each has
// exactly two implementations — the AVX2 assembly in kernels_amd64.s and the
// plain loop below — chosen by CPU feature alone. They agree to the bit
// because both evaluate, per element, the same IEEE-754 multiply followed
// by the same add in the same ascending-index order; a vector lane is one
// such scalar chain, and nothing is fused (the float64 conversions below
// forbid the compiler's FMA contraction just as the assembly avoids VFMADD)
// or re-associated.

// useAVX2 selects the assembly tier. Tests flip it to compare the tiers.
var useAVX2 = cpufeat.HasAVX2

// Kernel names the implementation the layer primitives run on this
// machine: "avx2" or "generic".
func Kernel() string {
	if useAVX2 {
		return "avx2"
	}
	return "generic"
}

// layerAcc computes the layer pre-activations (the argument of F in Eq. 5):
// acc[i] = b[i] + Σ_j w[i*in+j]*prev[j], bias first, then j ascending.
// The assembly keeps one output neuron per lane, so it needs at least four.
func layerAcc(w, b, prev, acc []float64) {
	in := len(prev)
	if useAVX2 && len(acc) >= 4 {
		layerAccAVX2(&w[0], &b[0], &prev[0], &acc[0], in, len(acc))
		return
	}
	for i := range acc {
		row := w[i*in : i*in+in : i*in+in]
		sum := b[i]
		for j, g := range prev {
			sum += float64(row[j] * g)
		}
		acc[i] = sum
	}
}

// backpropUpdate is the fused Eq. 7 + Eq. 8 pass over one hidden layer's
// weights: for rows j ascending it accumulates the back-propagated error
// tmp[i] += delta[j]*w[j*in+i] and then applies the update
// w[j*in+i] += (rate*delta[j])*prev[i], b[j] += rate*delta[j]. The error
// term reads each weight immediately before its update is written, so
// back-propagation sees pre-update weights exactly as a two-pass
// implementation would. tmp is overwritten.
func backpropUpdate(w, b, delta, prev, tmp []float64, rate float64) {
	in := len(prev)
	clear(tmp)
	if useAVX2 {
		backpropUpdateAVX2(&w[0], &b[0], &delta[0], &prev[0], &tmp[0], in, len(delta), rate)
		return
	}
	for j, dj := range delta {
		step := rate * dj
		row := w[j*in : j*in+in : j*in+in]
		for i, g := range prev {
			tmp[i] += float64(dj * row[i])
			row[i] += float64(step * g)
		}
		b[j] += step
	}
}

// sgdUpdate is the Eq. 8 update alone, for the input layer (no error term
// propagates to the inputs): w[i*in+j] += (rate*delta[i])*prev[j],
// b[i] += rate*delta[i].
func sgdUpdate(w, b, delta, prev []float64, rate float64) {
	in := len(prev)
	if useAVX2 {
		sgdUpdateAVX2(&w[0], &b[0], &delta[0], &prev[0], in, len(delta), rate)
		return
	}
	for i, di := range delta {
		step := rate * di
		row := w[i*in : i*in+in : i*in+in]
		for j, g := range prev {
			row[j] += float64(step * g)
		}
		b[i] += step
	}
}
