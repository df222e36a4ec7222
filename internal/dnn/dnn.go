// Package dnn is a from-scratch deep neural network substrate implementing
// exactly the model of the paper's Section III-A: a fully connected
// feed-forward network with sigmoid activations (Eq. 5), back-propagated
// error terms (Eqs. 6–7), and SGD weight updates (Eq. 8), trained for
// multiple epochs until a held-out validation error converges.
//
// Table II fixes the paper's topology: h = 4 layers with 50 units per
// hidden layer.
//
// # Flat kernels
//
// The paper flags DNN computation as CORP's main overhead, and this
// network sits in the simulator's per-slot inner loop, so the compute core
// is written as contiguous allocation-free kernels: each layer's weights
// are one flat []float64 (row-major, stride = fan-in) carved from a single
// slab, and activations/deltas/scratch are preallocated.
//
// Every forward pass and SGD step is built from three kernels (kernels.go):
// the dense layer with its sigmoid, the fused Eq. 7 + Eq. 8 hidden-layer
// pass, and the input-layer Eq. 8 update. Each has two implementations,
// AVX2+FMA assembly (kernels_amd64.s, selected by CPU feature at init) and
// one plain Go loop, and they are bit-identical because both perform the
// same IEEE-754 operations on each element in the same order. For the
// multiply/add chains that is two rules. Ascending index: every element's
// accumulation chain — a pre-activation's bias-then-fan-in sum, a
// back-propagated error's sum over the next layer's neurons — adds its
// terms in the same ascending order as the original jagged implementation.
// No FMA: every term is an IEEE-754 double multiply rounded, then an add
// rounded (VMULPD + VADDPD in the assembly, an explicit float64 conversion
// in Go). For the sigmoid it is one owned exponential: fmath.Exp spells out
// its range reduction and polynomial operation by operation, fused exactly
// where it calls math.FMA, and the assembly replays that chain on the
// accumulators before they are stored. A vector lane is then just one more
// such scalar chain, and the lane layout only picks which chains run side
// by side: in the forward kernel a lane is one output neuron (four weight
// rows are transposed in registers, sixteen rows are in flight, and a ragged
// last block is recomputed overlapped at out-4 rather than finished in
// scalar code); in the two update kernels a lane is one fan-in index (four
// rows share each chunk load, and the fan-in % 4 tail is one masked chunk).
// Single-row, batched and training evaluation all go through the same
// kernels. kernels_test.go pins the two tiers == on random shapes and on the
// sigmoid's whole argument range, and equivalence_test.go pins both against
// a reconstructed jagged reference.
package dnn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/fmath"
)

// Config describes a network topology and training hyperparameters.
type Config struct {
	// LayerSizes lists unit counts from the input layer to the output
	// layer inclusive, e.g. {Δ, 50, 50, 1} for the paper's 4-layer net.
	LayerSizes []int

	// LearningRate is μ in Eq. 8. Zero defaults to 0.5 (sigmoid nets
	// train comfortably at this rate on [0,1]-normalized data).
	LearningRate float64

	// Seed drives the deterministic weight initialization.
	Seed int64
}

// Network is a feed-forward sigmoid MLP.
type Network struct {
	sizes []int
	rate  float64

	// weights[d] is the flat row-major weight matrix of layer d → d+1:
	// weights[d][i*fanIn+j] is the weight from layer-d neuron j to
	// layer-(d+1) neuron i. All layers are views into one slab so Clone
	// and averaging are single sweeps.
	weights [][]float64
	biases  [][]float64
	wslab   []float64
	bslab   []float64

	// scratch buffers reused across calls; Network is NOT safe for
	// concurrent use (clone per goroutine instead).
	acts   [][]float64
	deltas [][]float64
	tmp    []float64 // fused-backward accumulator, sized to the widest layer

}

// newShell allocates a network's slabs and views for the given topology
// without initializing weights.
func newShell(sizes []int, rate float64) *Network {
	n := &Network{sizes: append([]int(nil), sizes...), rate: rate}
	totalW, totalB, maxWidth := 0, 0, 0
	for d := 0; d < len(sizes)-1; d++ {
		totalW += sizes[d] * sizes[d+1]
		totalB += sizes[d+1]
	}
	for _, s := range sizes {
		if s > maxWidth {
			maxWidth = s
		}
	}
	n.wslab = make([]float64, totalW)
	n.bslab = make([]float64, totalB)
	n.weights = make([][]float64, len(sizes)-1)
	n.biases = make([][]float64, len(sizes)-1)
	wOff, bOff := 0, 0
	for d := 0; d < len(sizes)-1; d++ {
		in, out := sizes[d], sizes[d+1]
		n.weights[d] = n.wslab[wOff : wOff+in*out : wOff+in*out]
		n.biases[d] = n.bslab[bOff : bOff+out : bOff+out]
		wOff += in * out
		bOff += out
	}
	actSlab := make([]float64, 2*sum(sizes))
	n.acts = make([][]float64, len(sizes))
	n.deltas = make([][]float64, len(sizes))
	off := 0
	for d, s := range sizes {
		n.acts[d] = actSlab[off : off+s : off+s]
		n.deltas[d] = actSlab[off+s : off+2*s : off+2*s]
		off += 2 * s
	}
	n.tmp = make([]float64, maxWidth)
	return n
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// New builds a network with deterministic small random weights.
func New(cfg Config) (*Network, error) {
	if len(cfg.LayerSizes) < 2 {
		return nil, errors.New("dnn: need at least input and output layers")
	}
	for i, s := range cfg.LayerSizes {
		if s < 1 {
			return nil, fmt.Errorf("dnn: layer %d has size %d", i, s)
		}
	}
	rate := cfg.LearningRate
	if rate <= 0 {
		rate = 0.5
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := newShell(cfg.LayerSizes, rate)
	for d := 0; d < len(n.sizes)-1; d++ {
		in, out := n.sizes[d], n.sizes[d+1]
		// Xavier-style scale keeps sigmoid pre-activations in the
		// responsive region for any layer width. The flat matrix is filled
		// in the same row-major RNG order as the original jagged layout,
		// so a given seed yields the identical network.
		scale := math.Sqrt(6.0 / float64(in+out))
		w := n.weights[d]
		for i := 0; i < out*in; i++ {
			w[i] = (2*rng.Float64() - 1) * scale
		}
	}
	return n, nil
}

// sigmoid is F of Eq. 5.
func sigmoid(x float64) float64 { return 1 / (1 + fmath.Exp(-x)) }

// sigmoidPrime is F′ expressed in terms of the activation g:
// F′ = g·(1−g), as used by Eqs. 6–7.
func sigmoidPrime(g float64) float64 { return g * (1 - g) }

// forward runs the feed-forward kernel (Eq. 5) into the network's own
// activations.
func (n *Network) forward(input []float64) {
	copy(n.acts[0], input)
	for d := 0; d < len(n.weights); d++ {
		forwardLayer(n.weights[d], n.biases[d], n.acts[d], n.acts[d+1])
	}
}

// Forward runs feed-forward evaluation (Eq. 5) and returns the output
// activations. The returned slice is owned by the network and overwritten
// by the next call; copy it if you need to keep it.
func (n *Network) Forward(input []float64) ([]float64, error) {
	if len(input) != n.sizes[0] {
		return nil, fmt.Errorf("dnn: input size %d, want %d", len(input), n.sizes[0])
	}
	n.forward(input)
	return n.acts[len(n.acts)-1], nil
}

// trainOne is the forward+backward+update step for one sample. Sizes must
// already be validated.
func (n *Network) trainOne(input, target []float64) float64 {
	n.forward(input)
	last := len(n.sizes) - 1
	out := n.acts[last]
	var loss float64
	for i, g := range out {
		diff := target[i] - g
		loss += 0.5 * diff * diff
		n.deltas[last][i] = diff * sigmoidPrime(g) // Eq. 6
	}
	// Hidden layers: fused Eq. 7 + Eq. 8 over weights[d], d = last-1 … 1.
	for d := last - 1; d >= 1; d-- {
		prev := n.acts[d]
		cur := n.deltas[d]
		tmp := n.tmp[:len(cur)]
		backpropUpdate(n.weights[d], n.biases[d], n.deltas[d+1], prev, tmp, n.rate)
		for i := range cur {
			cur[i] = tmp[i] * sigmoidPrime(prev[i])
		}
	}
	sgdUpdate(n.weights[0], n.biases[0], n.deltas[1], n.acts[0], n.rate)
	return loss
}

// TrainSample performs one SGD step on a single (input, target) pair:
// feed-forward (Eq. 5), output error terms (Eq. 6), back-propagation
// (Eq. 7), and weight update (Eq. 8). It returns the pre-update squared
// error ½‖t−g‖². The call performs no heap allocations.
func (n *Network) TrainSample(input, target []float64) (float64, error) {
	if len(input) != n.sizes[0] {
		return 0, fmt.Errorf("dnn: input size %d, want %d", len(input), n.sizes[0])
	}
	last := len(n.sizes) - 1
	if len(target) != n.sizes[last] {
		return 0, fmt.Errorf("dnn: target size %d, want %d", len(target), n.sizes[last])
	}
	return n.trainOne(input, target), nil
}

// TrainBatch runs sequential SGD steps over a batch of samples stored in
// flat row-major slabs: inputs holds count×inputSize values, targets
// count×outputSize, where count = len(inputs)/inputSize. Training order
// and numerics are identical to calling TrainSample on each row in turn;
// the batched entry point exists so hot callers (the CORP online trainer
// and its replay ring) can run several steps per call with zero
// allocations and no per-sample slice bookkeeping. It returns the summed
// pre-update loss over the batch.
func (n *Network) TrainBatch(inputs, targets []float64) (float64, error) {
	inSize := n.sizes[0]
	outSize := n.sizes[len(n.sizes)-1]
	if len(inputs) == 0 || len(inputs)%inSize != 0 {
		return 0, fmt.Errorf("dnn: batch inputs length %d not a positive multiple of %d", len(inputs), inSize)
	}
	count := len(inputs) / inSize
	if len(targets) != count*outSize {
		return 0, fmt.Errorf("dnn: batch targets length %d, want %d", len(targets), count*outSize)
	}
	var loss float64
	for s := 0; s < count; s++ {
		in := inputs[s*inSize : (s+1)*inSize]
		tg := targets[s*outSize : (s+1)*outSize]
		loss += n.trainOne(in, tg)
	}
	return loss, nil
}

// Clone returns a deep copy sharing no state, so each goroutine in a
// parallel sweep can own its own network. The flat layout makes this two
// slab copies plus fresh scratch.
func (n *Network) Clone() *Network {
	c := newShell(n.sizes, n.rate)
	copy(c.wslab, n.wslab)
	copy(c.bslab, n.bslab)
	return c
}

// Sample is one supervised training pair.
type Sample struct {
	Input  []float64
	Target []float64
}

// TrainOptions controls the epoch loop.
type TrainOptions struct {
	// MaxEpochs bounds training; zero defaults to 200.
	MaxEpochs int
	// ValidationFrac is the held-out fraction (taken from the end of the
	// sample list); zero defaults to 0.2.
	ValidationFrac float64
	// Tolerance is the relative validation-error improvement below which
	// an epoch counts as converged; zero defaults to 1e-4.
	Tolerance float64
	// Patience is how many consecutive converged epochs stop training;
	// zero defaults to 5.
	Patience int
	// Seed drives epoch shuffling.
	Seed int64
}

func (o TrainOptions) withDefaults() TrainOptions {
	if o.MaxEpochs <= 0 {
		o.MaxEpochs = 200
	}
	if o.ValidationFrac <= 0 || o.ValidationFrac >= 1 {
		o.ValidationFrac = 0.2
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-4
	}
	if o.Patience <= 0 {
		o.Patience = 5
	}
	return o
}

// TrainResult reports how a training run went.
type TrainResult struct {
	Epochs          int
	TrainLoss       float64 // mean per-sample loss of the final epoch
	ValidationLoss  float64 // mean held-out loss after the final epoch
	Converged       bool    // stopped by the convergence criterion
	ValidationCount int
}

// Loss returns the mean ½‖t−g‖² over the samples without updating weights.
func (n *Network) Loss(samples []Sample) (float64, error) {
	if len(samples) == 0 {
		return 0, nil
	}
	var total float64
	for _, s := range samples {
		out, err := n.Forward(s.Input)
		if err != nil {
			return 0, err
		}
		if len(s.Target) != len(out) {
			return 0, fmt.Errorf("dnn: target size %d, want %d", len(s.Target), len(out))
		}
		for i, g := range out {
			d := s.Target[i] - g
			total += 0.5 * d * d
		}
	}
	return total / float64(len(samples)), nil
}
