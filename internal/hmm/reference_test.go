package hmm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Test-side entry points to the unexported kernels. Production reaches the
// forward and backward passes only inside BaumWelchInto, and never needs γ
// on its own, a stochasticity check or a model of another size than the
// paper's; the tests do: they compare each pass with the jagged reference
// (equivalence_test.go) and with brute-force enumeration (hmm_test.go),
// validate a model after re-estimation, fit small 2×2 models, and check
// NewPaperFleet against one generator per model. The row views are
// allocated per call; the kernels underneath stay allocation-free
// (alloc_test.go calls them directly).

// New returns an h-state, m-symbol model with slightly-perturbed uniform
// parameters drawn from its own rand.NewSource(seed): A's rows, then B's,
// then π. It is the reference NewPaperFleet's shared, reseeded generator
// must reproduce model for model.
func New(h, m int, seed int64) (*Model, error) {
	if h < 1 || m < 1 {
		return nil, fmt.Errorf("hmm: invalid sizes H=%d M=%d", h, m)
	}
	rng := rand.New(rand.NewSource(seed))
	model := &Model{H: h, M: m}
	model.A = randomStochastic(rng, h, h)
	model.B = randomStochastic(rng, h, m)
	model.Pi = randomStochastic(rng, 1, h)[0]
	return model, nil
}

// randomStochastic draws rows×cols stochastic rows in row-major order.
func randomStochastic(rng *rand.Rand, rows, cols int) [][]float64 {
	out := make([][]float64, rows)
	for i := range out {
		out[i] = make([]float64, cols)
		var sum float64
		for j := range out[i] {
			out[i][j] = 1 + 0.2*rng.Float64()
			sum += out[i][j]
		}
		for j := range out[i] {
			out[i][j] /= sum
		}
	}
	return out
}

// Validate checks that all parameter rows are stochastic.
func (m *Model) Validate() error {
	if len(m.A) != m.H || len(m.B) != m.H || len(m.Pi) != m.H {
		return errors.New("hmm: parameter shapes do not match H")
	}
	check := func(row []float64, what string) error {
		var sum float64
		for _, p := range row {
			if p < -1e-12 || math.IsNaN(p) {
				return fmt.Errorf("hmm: %s has invalid probability %v", what, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("hmm: %s sums to %v", what, sum)
		}
		return nil
	}
	for i, row := range m.A {
		if len(row) != m.H {
			return fmt.Errorf("hmm: A row %d has %d cols", i, len(row))
		}
		if err := check(row, fmt.Sprintf("A[%d]", i)); err != nil {
			return err
		}
	}
	for i, row := range m.B {
		if len(row) != m.M {
			return fmt.Errorf("hmm: B row %d has %d cols", i, len(row))
		}
		if err := check(row, fmt.Sprintf("B[%d]", i)); err != nil {
			return err
		}
	}
	return check(m.Pi, "Pi")
}

// rows slices the flat T×H slab into T row views.
func rows(flat []float64, tLen, h int) [][]float64 {
	out := make([][]float64, tLen)
	for t := range out {
		out[t] = flat[t*h : (t+1)*h]
	}
	return out
}

// Forward computes the scaled forward variables α̂ (Eq. 14) on a fresh
// Scratch and returns them with the per-step scale factors and the
// sequence log-likelihood log P(O|λ).
func (m *Model) Forward(obs []Symbol) (alpha [][]float64, scale []float64, logProb float64, err error) {
	return m.ForwardInto(NewScratch(), obs)
}

// ForwardInto is Forward running on caller-supplied scratch; the returned
// slices alias s.
func (m *Model) ForwardInto(s *Scratch, obs []Symbol) (alpha [][]float64, scale []float64, logProb float64, err error) {
	if err := m.checkObs(obs); err != nil {
		return nil, nil, 0, err
	}
	s.pack(m)
	logProb = m.forwardInto(s, obs)
	return rows(s.alpha, len(obs), m.H), s.scale[:len(obs)], logProb, nil
}

// Backward computes the scaled backward variables β̂ (Eq. 15) on a fresh
// Scratch, using the scale factors produced by Forward on the same
// sequence.
func (m *Model) Backward(obs []Symbol, scale []float64) ([][]float64, error) {
	if err := m.checkObs(obs); err != nil {
		return nil, err
	}
	T := len(obs)
	if len(scale) != T {
		return nil, fmt.Errorf("hmm: scale length %d, want %d", len(scale), T)
	}
	s := NewScratch()
	s.pack(m)
	m.backwardInto(s, obs, scale)
	return rows(s.beta, T, m.H), nil
}

// Gamma computes γ_t(i) = P(q_t = S_i | O, λ) (Eqs. 12–13) for all t from
// one forward and one backward pass.
func (m *Model) Gamma(obs []Symbol) ([][]float64, error) {
	if err := m.checkObs(obs); err != nil {
		return nil, err
	}
	s := NewScratch()
	s.pack(m)
	T := len(obs)
	h := m.H
	m.forwardInto(s, obs)
	m.backwardInto(s, obs, s.scale[:T])
	gamma := make([]float64, T*h)
	for t := 0; t < T; t++ {
		base := t * h
		var norm float64
		for i := 0; i < h; i++ {
			g := s.alpha[base+i] * s.beta[base+i]
			gamma[base+i] = g
			norm += g
		}
		if norm > 0 {
			for i := 0; i < h; i++ {
				gamma[base+i] /= norm
			}
		}
	}
	return rows(gamma, T, h), nil
}
