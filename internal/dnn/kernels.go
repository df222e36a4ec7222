package dnn

import "repro/internal/cpufeat"

// The primitives every forward pass and SGD step is made of. Each has
// exactly two implementations — the AVX2 assembly in kernels_amd64.s and the
// plain loop below — chosen by CPU feature alone. They agree to the bit
// because both evaluate, per element, the same IEEE-754 operations in the
// same order; a vector lane is one such scalar chain, and nothing is
// re-associated. In the multiply/add chains nothing is fused either (the
// float64 conversions below forbid the compiler's FMA contraction just as
// the assembly avoids VFMADD). The sigmoid's exponential is the one chain
// that does fuse, and there both tiers fuse the same operations: the loop
// through fmath.Exp's math.FMA calls, the assembly through the matching
// VFMADD/VFNMADD, which is why the tier needs FMA3 as well as AVX2.

// useAVX2 selects the assembly tier. Tests flip it to compare the tiers.
var useAVX2 = cpufeat.HasAVX2 && cpufeat.HasFMA

// forwardLayer applies one dense layer (Eq. 5) to a single activation row:
// cur[i] = F(b[i] + Σ_j w[i*in+j]*prev[j]), bias first, then j ascending, F
// the sigmoid. Batched evaluation (batch.go) and training call it too, so
// all three share one definition of the layer numerics. The assembly keeps
// one output neuron per lane, so it needs at least four, and it stops at
// the first group of rows holding a pre-activation its in-register sigmoid
// does not cover (|x| > 700 or NaN); the loop finishes whatever it left.
func forwardLayer(w, b, prev, cur []float64) {
	in := len(prev)
	done := 0
	if useAVX2 && len(cur) >= 4 {
		done = forwardLayerAVX2(&w[0], &b[0], &prev[0], &cur[0], in, len(cur))
	}
	for i := done; i < len(cur); i++ {
		row := w[i*in : i*in+in : i*in+in]
		sum := b[i]
		for j, g := range prev {
			sum += float64(row[j] * g)
		}
		cur[i] = sigmoid(sum)
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
