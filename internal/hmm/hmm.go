// Package hmm implements the hidden Markov model substrate of the paper's
// Section III-A-1b: an H = 3 state model (over-provisioning OP,
// normal-provisioning NP, under-provisioning UP) emitting M = 3 observation
// symbols (peak, center, valley of the unused-resource fluctuation), with
// scaled forward–backward (Eqs. 12–15), Viterbi decoding (Eq. 16),
// Baum–Welch parameter re-estimation, and next-observation prediction
// (Eq. 17).
//
// The kernels run over contiguous row-major slabs held in a reusable,
// caller-supplied Scratch, so in steady state (once the scratch has grown
// to the longest observation sequence seen) ViterbiInto, BaumWelchInto
// with its forward and backward passes, and PredictNextSymbolInto perform
// no heap allocations. Every kernel preserves the floating-point
// accumulation order of the original jagged implementation exactly — see
// equivalence_test.go — so all figures pinned to fixed seeds are
// bit-identical to the seed code.
package hmm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Symbol is an observation symbol. The paper's symbols 1, 2, 3 map to
// Peak, Center, Valley.
type Symbol int

// Observation symbols (paper Section III-A-1b).
const (
	Peak Symbol = iota
	Center
	Valley

	// NumSymbols is M = 3 (Table II).
	NumSymbols = 3
)

// String names the symbol.
func (s Symbol) String() string {
	switch s {
	case Peak:
		return "peak"
	case Center:
		return "center"
	case Valley:
		return "valley"
	default:
		return fmt.Sprintf("Symbol(%d)", int(s))
	}
}

// State is a hidden provisioning state.
type State int

// Hidden states (paper Fig. 3).
const (
	OverProvisioning State = iota
	NormalProvisioning
	UnderProvisioning

	// NumStates is H = 3 (Table II).
	NumStates = 3
)

// String names the state.
func (s State) String() string {
	switch s {
	case OverProvisioning:
		return "OP"
	case NormalProvisioning:
		return "NP"
	case UnderProvisioning:
		return "UP"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Model is a discrete HMM λ = (A, B, π) (Eqs. 9–11). The exported
// parameter rows stay addressable as jagged slices for construction and
// inspection; NewPaperFleet backs a whole fleet's rows with one parameter
// slab and one row-header slab. The compute kernels pack the parameters
// into flat row-major scratch slabs at entry, so direct struct literals
// (handy in tests) run through the same code path.
//
// A Model holds no working memory: every kernel runs on a caller-supplied
// Scratch, which any number of models may share as long as no two kernel
// calls on it overlap.
type Model struct {
	H, M int
	A    [][]float64 // A[i][j] = P(q_{t+1}=S_j | q_t=S_i)
	B    [][]float64 // B[j][k] = P(O_t=k | q_t=S_j)
	Pi   []float64   // Pi[i] = P(q_1=S_i)
}

// NewPaperModel returns the paper's 3×3 model (H = 3 states, M = 3
// symbols, Table II) seeded from seed: a fleet of one.
func NewPaperModel(seed int64) *Model {
	return &NewPaperFleet(1, func(int) int64 { return seed })[0]
}

// NewPaperFleet returns n paper models with slightly-perturbed uniform
// parameters; the perturbation breaks the symmetry Baum–Welch cannot
// escape from exactly uniform starts. Model i is drawn from
// rand.NewSource(seedOf(i)), A's rows first, then B's, then π, each row
// normalized to sum to 1. The models' parameters share one slab and their
// row headers another, and one generator reseeded per model draws them
// all (reseeding resets a source's whole state), so a fleet of any size
// costs a constant number of allocations.
func NewPaperFleet(n int, seedOf func(i int) int64) []Model {
	const h, m = NumStates, NumSymbols
	const per = h*h + h*m + h // A, B, π
	params := make([]float64, n*per)
	hdrs := make([][]float64, n*2*h)
	fleet := make([]Model, n)
	rng := rand.New(rand.NewSource(0))
	for i := range fleet {
		rng.Seed(seedOf(i))
		p := params[i*per : (i+1)*per : (i+1)*per]
		rows := hdrs[i*2*h : (i+1)*2*h : (i+1)*2*h]
		for r := 0; r < h; r++ {
			rows[r] = p[r*h : (r+1)*h : (r+1)*h]
			drawStochastic(rng, rows[r])
		}
		b := p[h*h:]
		for r := 0; r < h; r++ {
			rows[h+r] = b[r*m : (r+1)*m : (r+1)*m]
			drawStochastic(rng, rows[h+r])
		}
		pi := p[h*h+h*m:]
		drawStochastic(rng, pi)
		fleet[i] = Model{H: h, M: m, A: rows[:h:h], B: rows[h:], Pi: pi}
	}
	return fleet
}

// drawStochastic fills row with 1 + 0.2·U draws, U uniform on [0, 1), and
// normalizes it to sum to 1.
func drawStochastic(rng *rand.Rand, row []float64) {
	var sum float64
	for j := range row {
		row[j] = 1 + 0.2*rng.Float64()
		sum += row[j]
	}
	for j := range row {
		row[j] /= sum
	}
}

func (m *Model) checkObs(obs []Symbol) error {
	if len(obs) == 0 {
		return errors.New("hmm: empty observation sequence")
	}
	for t, o := range obs {
		if int(o) < 0 || int(o) >= m.M {
			return fmt.Errorf("hmm: observation %d at t=%d outside [0,%d)", o, t, m.M)
		}
	}
	return nil
}

// Scratch holds every buffer the HMM kernels need: flat row-major
// parameter slabs packed at kernel entry, the α/β/γ/ξ recursion slabs,
// the Viterbi trellis, and the row-header views the jagged-shaped return
// values alias into. A zero Scratch is ready to use; buffers grow to the
// largest (H, M, T) seen and are reused thereafter, at which point every
// kernel is allocation-free.
//
// Slices returned by kernels running on a Scratch alias its buffers: they
// are valid until the next kernel call on the same Scratch.
type Scratch struct {
	a, b []float64 // packed parameters: H×H and H×M row-major
	pi   []float64

	logA, logB []float64 // per-call logs for Viterbi

	alpha, beta []float64 // T×H row-major
	scale       []float64 // T
	gamma       []float64 // T×H
	xi          []float64 // (T-1)×H×H

	delta []float64 // Viterbi trellis, T×H
	psi   []int32   // backpointers, T×H
	path  []State   // T
	dist  []float64 // M
}

// NewScratch returns an empty scratch; kernels size it on first use.
func NewScratch() *Scratch { return &Scratch{} }

// grow returns buf resized to n. Contents are not preserved: every kernel
// writes what it reads. A reallocation at least doubles the capacity, so a
// history that grows by one slot per call (a VM's HMM observations filling
// up) reallocates O(log n) times instead of on every call.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, max(n, 2*cap(buf)))
	}
	return buf[:n]
}

// pack copies the model parameters into the flat slabs. The copies are
// exact, so the flat kernels see precisely the values the jagged code read
// through the row pointers.
func (s *Scratch) pack(m *Model) {
	h, mm := m.H, m.M
	s.a = grow(s.a, h*h)
	s.b = grow(s.b, h*mm)
	s.pi = grow(s.pi, h)
	for i := 0; i < h; i++ {
		copy(s.a[i*h:(i+1)*h], m.A[i])
		copy(s.b[i*mm:(i+1)*mm], m.B[i])
	}
	copy(s.pi, m.Pi)
}

// forwardInto runs the scaled forward pass (Eq. 14) on packed parameters.
// Callers must have validated obs and packed s.
func (m *Model) forwardInto(s *Scratch, obs []Symbol) (logProb float64) {
	h := m.H
	mm := m.M
	T := len(obs)
	s.alpha = grow(s.alpha, T*h)
	s.scale = grow(s.scale, T)
	a, b, pi := s.a, s.b, s.pi
	alpha, scale := s.alpha, s.scale

	var sc float64
	o0 := int(obs[0])
	for i := 0; i < h; i++ {
		v := pi[i] * b[i*mm+o0]
		alpha[i] = v
		sc += v
	}
	if sc == 0 {
		sc = math.SmallestNonzeroFloat64
	}
	scale[0] = sc
	for i := 0; i < h; i++ {
		alpha[i] /= sc
	}
	for t := 1; t < T; t++ {
		prev := (t - 1) * h
		base := t * h
		ot := int(obs[t])
		sc = 0
		for j := 0; j < h; j++ {
			var sum float64
			for i := 0; i < h; i++ {
				sum += alpha[prev+i] * a[i*h+j]
			}
			v := sum * b[j*mm+ot]
			alpha[base+j] = v
			sc += v
		}
		if sc == 0 {
			sc = math.SmallestNonzeroFloat64
		}
		scale[t] = sc
		for j := 0; j < h; j++ {
			alpha[base+j] /= sc
		}
	}
	for t := 0; t < T; t++ {
		logProb += math.Log(scale[t])
	}
	return logProb
}

// backwardInto runs the scaled backward pass (Eq. 15) using s.scale from a
// forward pass over the same obs.
func (m *Model) backwardInto(s *Scratch, obs []Symbol, scale []float64) {
	h := m.H
	mm := m.M
	T := len(obs)
	s.beta = grow(s.beta, T*h)
	a, b := s.a, s.b
	beta := s.beta

	last := (T - 1) * h
	for i := 0; i < h; i++ {
		beta[last+i] = 1 / scale[T-1]
	}
	for t := T - 2; t >= 0; t-- {
		base := t * h
		next := (t + 1) * h
		on := int(obs[t+1])
		for i := 0; i < h; i++ {
			var sum float64
			for j := 0; j < h; j++ {
				sum += a[i*h+j] * b[j*mm+on] * beta[next+j]
			}
			beta[base+i] = sum / scale[t]
		}
	}
}

// ViterbiInto returns the single best state sequence Q* maximizing
// P(Q, O|λ) and its log probability (Eq. 16). The paper uses Viterbi "to
// find the single best state sequence (path)". The returned path aliases s
// and is overwritten by the next kernel call on s.
func (m *Model) ViterbiInto(s *Scratch, obs []Symbol) ([]State, float64, error) {
	if err := m.checkObs(obs); err != nil {
		return nil, 0, err
	}
	s.pack(m)
	h := m.H
	mm := m.M
	T := len(obs)
	s.logA = grow(s.logA, h*h)
	s.logB = grow(s.logB, h*mm)
	for i, p := range s.a[:h*h] {
		s.logA[i] = safeLog(p)
	}
	for i, p := range s.b[:h*mm] {
		s.logB[i] = safeLog(p)
	}
	s.delta = grow(s.delta, T*h)
	s.psi = grow(s.psi, T*h)
	s.path = grow(s.path, T)
	logA, logB := s.logA, s.logB
	delta, psi := s.delta, s.psi

	o0 := int(obs[0])
	for i := 0; i < h; i++ {
		delta[i] = safeLog(s.pi[i]) + logB[i*mm+o0]
	}
	for t := 1; t < T; t++ {
		prev := (t - 1) * h
		base := t * h
		ot := int(obs[t])
		for j := 0; j < h; j++ {
			best, bestI := math.Inf(-1), 0
			for i := 0; i < h; i++ {
				v := delta[prev+i] + logA[i*h+j]
				if v > best {
					best, bestI = v, i
				}
			}
			delta[base+j] = best + logB[j*mm+ot]
			psi[base+j] = int32(bestI)
		}
	}
	last := (T - 1) * h
	best, bestI := math.Inf(-1), 0
	for i := 0; i < h; i++ {
		if delta[last+i] > best {
			best, bestI = delta[last+i], i
		}
	}
	path := s.path
	path[T-1] = State(bestI)
	for t := T - 2; t >= 0; t-- {
		path[t] = State(psi[(t+1)*h+int(path[t+1])])
	}
	return path, best, nil
}

func safeLog(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	return math.Log(p)
}

// BaumWelchInto re-estimates (A, B, π) from the observation sequence
// using the method of Stamp's tutorial (the paper's reference [30]):
// iterate expectation (γ, ξ, from the scaled forward and backward passes
// of Eqs. 12–15) and maximization until the log-likelihood improvement
// drops below tol or maxIters is reached. It returns the final
// log-likelihood and the number of iterations run.
func (m *Model) BaumWelchInto(s *Scratch, obs []Symbol, maxIters int, tol float64) (float64, int, error) {
	if err := m.checkObs(obs); err != nil {
		return 0, 0, err
	}
	if maxIters <= 0 {
		maxIters = 50
	}
	if tol <= 0 {
		tol = 1e-6
	}
	h := m.H
	mm := m.M
	T := len(obs)
	s.gamma = grow(s.gamma, T*h)
	if T > 1 {
		s.xi = grow(s.xi, (T-1)*h*h)
	}
	prevLog := math.Inf(-1)
	var logProb float64
	iters := 0
	for iter := 0; iter < maxIters; iter++ {
		iters = iter + 1
		// E-step on the current parameters.
		s.pack(m)
		logProb = m.forwardInto(s, obs)
		m.backwardInto(s, obs, s.scale[:T])
		a, b := s.a, s.b
		alpha, beta, gamma, xi := s.alpha, s.beta, s.gamma, s.xi
		for t := 0; t < T; t++ {
			base := t * h
			for i := 0; i < h; i++ {
				gamma[base+i] = 0
			}
			if t < T-1 {
				xbase := t * h * h
				next := (t + 1) * h
				on := int(obs[t+1])
				var norm float64
				for i := 0; i < h; i++ {
					for j := 0; j < h; j++ {
						v := alpha[base+i] * a[i*h+j] * b[j*mm+on] * beta[next+j]
						xi[xbase+i*h+j] = v
						norm += v
					}
				}
				if norm > 0 {
					for i := 0; i < h; i++ {
						for j := 0; j < h; j++ {
							x := xi[xbase+i*h+j] / norm
							xi[xbase+i*h+j] = x
							gamma[base+i] += x
						}
					}
				}
			} else {
				var norm float64
				for i := 0; i < h; i++ {
					g := alpha[base+i] * beta[base+i]
					gamma[base+i] = g
					norm += g
				}
				if norm > 0 {
					for i := 0; i < h; i++ {
						gamma[base+i] /= norm
					}
				}
			}
		}
		// M-step.
		for i := 0; i < h; i++ {
			m.Pi[i] = gamma[i]
		}
		for i := 0; i < h; i++ {
			var denom float64
			for t := 0; t < T-1; t++ {
				denom += gamma[t*h+i]
			}
			for j := 0; j < h; j++ {
				var num float64
				for t := 0; t < T-1; t++ {
					num += xi[t*h*h+i*h+j]
				}
				if denom > 0 {
					m.A[i][j] = num / denom
				}
			}
		}
		for j := 0; j < h; j++ {
			var denom float64
			for t := 0; t < T; t++ {
				denom += gamma[t*h+j]
			}
			for k := 0; k < mm; k++ {
				var num float64
				for t := 0; t < T; t++ {
					if int(obs[t]) == k {
						num += gamma[t*h+j]
					}
				}
				if denom > 0 {
					m.B[j][k] = num / denom
				}
			}
		}
		m.renormalize()
		if logProb-prevLog < tol && iter > 0 {
			break
		}
		prevLog = logProb
	}
	return logProb, iters, nil
}

// renormalize nudges every row back to exactly stochastic after float
// drift, flooring probabilities at a tiny epsilon so no transition or
// emission becomes impossible (which would wedge Viterbi on unseen data).
func (m *Model) renormalize() {
	const floor = 1e-9
	fix := func(row []float64) {
		var sum float64
		for i := range row {
			if row[i] < floor {
				row[i] = floor
			}
			sum += row[i]
		}
		for i := range row {
			row[i] /= sum
		}
	}
	for i := range m.A {
		fix(m.A[i])
	}
	for i := range m.B {
		fix(m.B[i])
	}
	fix(m.Pi)
}

// PredictNextSymbolInto implements Eq. 17: given the final Viterbi state
// q*_T, the distribution of the next observation is
// E[P_{T+1}(k)] = Σ_j P(q_{T+1}=S_j | q_T=q*_T) · b_j(k); the predicted
// symbol is the argmax. It returns the symbol and the full distribution,
// which aliases s and is overwritten by the next PredictNextSymbolInto
// call on s.
func (m *Model) PredictNextSymbolInto(s *Scratch, lastState State) (Symbol, []float64, error) {
	if int(lastState) < 0 || int(lastState) >= m.H {
		return 0, nil, fmt.Errorf("hmm: state %d outside [0,%d)", lastState, m.H)
	}
	s.dist = grow(s.dist, m.M)
	dist := s.dist
	for k := 0; k < m.M; k++ {
		dist[k] = 0
	}
	for j := 0; j < m.H; j++ {
		p := m.A[lastState][j]
		for k := 0; k < m.M; k++ {
			dist[k] += p * m.B[j][k]
		}
	}
	best := 0
	for k := 1; k < m.M; k++ {
		if dist[k] > dist[best] {
			best = k
		}
	}
	return Symbol(best), dist, nil
}
