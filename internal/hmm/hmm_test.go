package hmm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestSymbolAndStateStrings(t *testing.T) {
	if Peak.String() != "peak" || Center.String() != "center" || Valley.String() != "valley" {
		t.Error("symbol names wrong")
	}
	if Symbol(9).String() != "Symbol(9)" {
		t.Error("unknown symbol name wrong")
	}
	if OverProvisioning.String() != "OP" || NormalProvisioning.String() != "NP" || UnderProvisioning.String() != "UP" {
		t.Error("state names wrong")
	}
	if State(9).String() != "State(9)" {
		t.Error("unknown state name wrong")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 3, 1); err == nil {
		t.Error("zero states should fail")
	}
	if _, err := New(3, 0, 1); err == nil {
		t.Error("zero symbols should fail")
	}
	m, err := New(3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("fresh model invalid: %v", err)
	}
}

func TestNewPaperModel(t *testing.T) {
	m := NewPaperModel(1)
	if m.H != NumStates || m.M != NumSymbols {
		t.Errorf("paper model is %dx%d, want 3x3", m.H, m.M)
	}
	assertSameModel(t, "NewPaperModel(1)", m, 1)
}

// assertSameModel fails unless m equals New(3, 3, seed), the model drawn
// from its own rand.NewSource(seed), bit for bit in A, B and π.
func assertSameModel(t *testing.T, what string, m *Model, seed int64) {
	t.Helper()
	ref, err := New(NumStates, NumSymbols, seed)
	if err != nil {
		t.Fatal(err)
	}
	if m.H != ref.H || m.M != ref.M || len(m.A) != ref.H || len(m.B) != ref.H {
		t.Fatalf("%s: shape H=%d M=%d with %d A and %d B rows", what, m.H, m.M, len(m.A), len(m.B))
	}
	for r := range ref.A {
		if !slices.Equal(m.A[r], ref.A[r]) {
			t.Fatalf("%s (seed %d): A[%d] = %v, want %v", what, seed, r, m.A[r], ref.A[r])
		}
		if !slices.Equal(m.B[r], ref.B[r]) {
			t.Fatalf("%s (seed %d): B[%d] = %v, want %v", what, seed, r, m.B[r], ref.B[r])
		}
	}
	if !slices.Equal(m.Pi, ref.Pi) {
		t.Fatalf("%s (seed %d): Pi = %v, want %v", what, seed, m.Pi, ref.Pi)
	}
}

// TestPaperFleetMatchesPerModelSources pins NewPaperFleet's one reseeded
// generator to the stream of a fresh rand.NewSource per model, over bases
// the source folds in different ways (zero, negative, at and past 2³¹,
// near the int64 ends) and over CORP's overlapping seed + i + k schedule,
// where VM i's kind-k seed is VM i+1's kind-(k−1) seed. It also checks
// the models' rows are capped, so no append through one model can write
// into its neighbour's parameters.
func TestPaperFleetMatchesPerModelSources(t *testing.T) {
	const kinds = 3
	bases := []int64{0, 1, -1, -42, 1<<31 - 2, 1<<31 - 1, 1 << 31, 1<<31 + 5, 1 << 40,
		math.MaxInt64 - 4, math.MinInt64}
	for _, base := range bases {
		seedOf := func(j int) int64 { return base + int64(j/kinds) + int64(j%kinds) }
		const vms = 5
		fleet := NewPaperFleet(vms*kinds, seedOf)
		if len(fleet) != vms*kinds {
			t.Fatalf("base %d: %d models, want %d", base, len(fleet), vms*kinds)
		}
		for j := range fleet {
			m := &fleet[j]
			assertSameModel(t, fmt.Sprintf("base %d model %d", base, j), m, seedOf(j))
			for r := range m.A {
				if cap(m.A[r]) != len(m.A[r]) || cap(m.B[r]) != len(m.B[r]) {
					t.Fatalf("base %d model %d: row %d not capped", base, j, r)
				}
			}
			if cap(m.A) != len(m.A) || cap(m.B) != len(m.B) || cap(m.Pi) != len(m.Pi) {
				t.Fatalf("base %d model %d: row headers or π not capped", base, j)
			}
		}
		// CORP's schedule overlaps: VM i's kind-k model starts where VM
		// i+1's kind-(k−1) model does.
		if !slices.Equal(fleet[0*kinds+1].Pi, fleet[1*kinds+0].Pi) {
			t.Fatalf("base %d: seed + i + k overlap not reproduced", base)
		}
	}
	if got := NewPaperFleet(0, func(int) int64 { return 1 }); len(got) != 0 {
		t.Fatalf("empty fleet has %d models", len(got))
	}
}

// TestPaperFleetAllocationsDoNotGrow pins the fleet constructor's cost:
// a constant number of allocations however many models it builds. (The
// slack of 2 absorbs a garbage collection the larger slabs may trigger
// mid-measurement; one allocation per model would add thousands.)
func TestPaperFleetAllocationsDoNotGrow(t *testing.T) {
	seedOf := func(i int) int64 { return int64(i) }
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(5, func() { NewPaperFleet(n, seedOf) })
	}
	if small, large := allocs(30), allocs(3000); large > small+2 {
		t.Fatalf("NewPaperFleet allocates %.0f times for 30 models and %.0f for 3000, want at most 2 more", small, large)
	}
}

func TestValidateCatchesBadRows(t *testing.T) {
	m := NewPaperModel(1)
	m.A[0][0] = 2
	if err := m.Validate(); err == nil {
		t.Error("non-stochastic A should fail validation")
	}
}

func TestForwardRejectsBadObs(t *testing.T) {
	m := NewPaperModel(1)
	if _, _, _, err := m.Forward(nil); err == nil {
		t.Error("empty obs should fail")
	}
	if _, _, _, err := m.Forward([]Symbol{0, 5}); err == nil {
		t.Error("out-of-range symbol should fail")
	}
}

// knownModel builds a small HMM with hand-picked parameters for exact
// likelihood checks.
func knownModel() *Model {
	return &Model{
		H: 2, M: 2,
		A:  [][]float64{{0.7, 0.3}, {0.4, 0.6}},
		B:  [][]float64{{0.9, 0.1}, {0.2, 0.8}},
		Pi: []float64{0.8, 0.2},
	}
}

func TestForwardLikelihoodMatchesBruteForce(t *testing.T) {
	m := knownModel()
	obs := []Symbol{0, 1, 0}
	_, _, logProb, err := m.Forward(obs)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force over all 2³ state paths.
	var total float64
	for s0 := 0; s0 < 2; s0++ {
		for s1 := 0; s1 < 2; s1++ {
			for s2 := 0; s2 < 2; s2++ {
				p := m.Pi[s0] * m.B[s0][obs[0]] *
					m.A[s0][s1] * m.B[s1][obs[1]] *
					m.A[s1][s2] * m.B[s2][obs[2]]
				total += p
			}
		}
	}
	if math.Abs(math.Exp(logProb)-total) > 1e-12 {
		t.Errorf("forward P = %v, brute force %v", math.Exp(logProb), total)
	}
}

func TestGammaRowsSumToOne(t *testing.T) {
	m := knownModel()
	obs := []Symbol{0, 0, 1, 1, 0}
	gamma, err := m.Gamma(obs)
	if err != nil {
		t.Fatal(err)
	}
	for tIdx, row := range gamma {
		var sum float64
		for _, p := range row {
			if p < 0 {
				t.Errorf("gamma[%d] has negative prob", tIdx)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("gamma[%d] sums to %v", tIdx, sum)
		}
	}
}

func TestViterbiMatchesBruteForce(t *testing.T) {
	m := knownModel()
	obs := []Symbol{0, 1, 1, 0}
	path, logP, err := m.ViterbiInto(NewScratch(), obs)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force best path.
	best := math.Inf(-1)
	var bestPath []State
	var rec func(prefix []State, logp float64)
	rec = func(prefix []State, logp float64) {
		tIdx := len(prefix)
		if tIdx == len(obs) {
			if logp > best {
				best = logp
				bestPath = append([]State(nil), prefix...)
			}
			return
		}
		for s := 0; s < m.H; s++ {
			var step float64
			if tIdx == 0 {
				step = math.Log(m.Pi[s]) + math.Log(m.B[s][obs[0]])
			} else {
				step = math.Log(m.A[prefix[tIdx-1]][s]) + math.Log(m.B[s][obs[tIdx]])
			}
			rec(append(prefix, State(s)), logp+step)
		}
	}
	rec(nil, 0)
	if math.Abs(logP-best) > 1e-9 {
		t.Errorf("Viterbi logP = %v, brute force %v", logP, best)
	}
	for i := range path {
		if path[i] != bestPath[i] {
			t.Errorf("Viterbi path %v, brute force %v", path, bestPath)
			break
		}
	}
}

func TestBaumWelchImprovesLikelihood(t *testing.T) {
	// Generate observations from a known sticky model, then fit a fresh
	// one and check likelihood improves monotonically overall.
	gen := &Model{
		H: 2, M: 2,
		A:  [][]float64{{0.85, 0.15}, {0.2, 0.8}},
		B:  [][]float64{{0.9, 0.1}, {0.15, 0.85}},
		Pi: []float64{0.6, 0.4},
	}
	rng := rand.New(rand.NewSource(3))
	obs := sampleSequence(gen, rng, 400)

	m, err := New(2, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	_, _, before, err := m.Forward(obs)
	if err != nil {
		t.Fatal(err)
	}
	after, iters, err := m.BaumWelchInto(NewScratch(), obs, 100, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Errorf("Baum–Welch did not improve: %v → %v", before, after)
	}
	if iters < 2 {
		t.Errorf("suspiciously few iterations: %d", iters)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("model invalid after Baum–Welch: %v", err)
	}
}

func TestBaumWelchRecoversStickyStructure(t *testing.T) {
	gen := &Model{
		H: 2, M: 2,
		A:  [][]float64{{0.9, 0.1}, {0.1, 0.9}},
		B:  [][]float64{{0.95, 0.05}, {0.05, 0.95}},
		Pi: []float64{0.5, 0.5},
	}
	rng := rand.New(rand.NewSource(11))
	obs := sampleSequence(gen, rng, 2000)
	m, err := New(2, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.BaumWelchInto(NewScratch(), obs, 200, 1e-8); err != nil {
		t.Fatal(err)
	}
	// Self-transitions should be learned as sticky (>0.7) in both states
	// (up to state relabeling, diagonal or anti-diagonal dominance).
	diag := m.A[0][0] + m.A[1][1]
	anti := m.A[0][1] + m.A[1][0]
	if diag < anti {
		t.Errorf("expected sticky chain, got A=%v", m.A)
	}
	if math.Max(m.A[0][0], m.A[0][1]) < 0.7 {
		t.Errorf("state 0 transitions too uniform: %v", m.A[0])
	}
}

func sampleSequence(m *Model, rng *rand.Rand, n int) []Symbol {
	obs := make([]Symbol, n)
	state := sampleIdx(m.Pi, rng)
	for t := 0; t < n; t++ {
		obs[t] = Symbol(sampleIdx(m.B[state], rng))
		state = sampleIdx(m.A[state], rng)
	}
	return obs
}

func sampleIdx(dist []float64, rng *rand.Rand) int {
	u := rng.Float64()
	for i, p := range dist {
		if u < p {
			return i
		}
		u -= p
	}
	return len(dist) - 1
}

func TestPredictNextSymbolDistribution(t *testing.T) {
	m := knownModel()
	s := NewScratch()
	sym, dist, err := m.PredictNextSymbolInto(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range dist {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("next-symbol distribution sums to %v", sum)
	}
	// From state 0: 0.7·B[0] + 0.3·B[1] = (0.69, 0.31) → symbol 0.
	if sym != Symbol(0) {
		t.Errorf("predicted %v, want 0", sym)
	}
	if math.Abs(dist[0]-0.69) > 1e-9 {
		t.Errorf("dist[0] = %v, want 0.69", dist[0])
	}
	if _, _, err := m.PredictNextSymbolInto(s, State(5)); err == nil {
		t.Error("out-of-range state should fail")
	}
}

// Property: forward log-likelihood never increases when an impossible
// symbol streak replaces a typical one under a near-deterministic model;
// and γ stays a distribution for random models and sequences.
func TestQuickGammaIsDistribution(t *testing.T) {
	f := func(seed int64, rawObs []uint8) bool {
		if len(rawObs) == 0 {
			return true
		}
		if len(rawObs) > 50 {
			rawObs = rawObs[:50]
		}
		m := NewPaperModel(seed)
		obs := make([]Symbol, len(rawObs))
		for i, o := range rawObs {
			obs[i] = Symbol(int(o) % m.M)
		}
		gamma, err := m.Gamma(obs)
		if err != nil {
			return false
		}
		for _, row := range gamma {
			var sum float64
			for _, p := range row {
				if p < -1e-12 || math.IsNaN(p) {
					return false
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSymbolizerThresholds(t *testing.T) {
	s, err := NewSymbolizer([]float64{0, 5, 10, 15, 20}) // min 0, mean 10, max 20
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := s.Thresholds()
	if t1 != 5 || t2 != 15 {
		t.Errorf("thresholds = (%v, %v), want (5, 15)", t1, t2)
	}
	if s.SymbolForLevel(3) != Valley {
		t.Error("low level should be valley")
	}
	if s.SymbolForLevel(5) != Valley {
		t.Error("level == t1 should be valley (inclusive)")
	}
	if s.SymbolForLevel(10) != Center {
		t.Error("middle level should be center")
	}
	if s.SymbolForLevel(15) != Peak {
		t.Error("level == t2 should be peak")
	}
	if s.SymbolForLevel(19) != Peak {
		t.Error("high level should be peak")
	}
}

func TestNewSymbolizerEmpty(t *testing.T) {
	if _, err := NewSymbolizer(nil); err == nil {
		t.Error("empty history should fail")
	}
}

func TestCorrectionMagnitudeConservative(t *testing.T) {
	// up = max−mean = 4, down = mean−min = 6 → min is 4.
	s := &Symbolizer{Min: 0, Mean: 6, Max: 10}
	if got := s.CorrectionMagnitude(); got != 4 {
		t.Errorf("magnitude = %v, want 4", got)
	}
	// Symmetric case.
	s2 := &Symbolizer{Min: 0, Mean: 5, Max: 10}
	if got := s2.CorrectionMagnitude(); got != 5 {
		t.Errorf("magnitude = %v, want 5", got)
	}
}

func BenchmarkViterbi60(b *testing.B) {
	m := NewPaperModel(1)
	s := NewScratch()
	obs := make([]Symbol, 60)
	for i := range obs {
		obs[i] = Symbol(i % 3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.ViterbiInto(s, obs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaumWelch200(b *testing.B) {
	gen := NewPaperModel(4)
	rng := rand.New(rand.NewSource(9))
	obs := sampleSequence(gen, rng, 200)
	s := NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewPaperModel(int64(i))
		if _, _, err := m.BaumWelchInto(s, obs, 20, 1e-6); err != nil {
			b.Fatal(err)
		}
	}
}
