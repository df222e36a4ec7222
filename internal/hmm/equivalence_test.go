package hmm

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// This suite pins the flat scratch-based kernels to the original jagged
// implementation (reproduced below verbatim, modulo receiver plumbing).
// Every comparison is for exact equality — the flat kernels preserve the
// jagged accumulation order bit for bit — so fixed-seed figures cannot
// drift. It mirrors dnn/equivalence_test.go from the DNN flattening.

// jaggedModel is the seed implementation's state: per-row allocated
// parameters, fresh matrices on every call.
type jaggedModel struct {
	H, M int
	A    [][]float64
	B    [][]float64
	Pi   []float64
}

func jaggedFrom(m *Model) *jaggedModel {
	j := &jaggedModel{H: m.H, M: m.M, Pi: append([]float64(nil), m.Pi...)}
	j.A = make([][]float64, len(m.A))
	for i, row := range m.A {
		j.A[i] = append([]float64(nil), row...)
	}
	j.B = make([][]float64, len(m.B))
	for i, row := range m.B {
		j.B[i] = append([]float64(nil), row...)
	}
	return j
}

func (m *jaggedModel) forward(obs []Symbol) (alpha [][]float64, scale []float64, logProb float64) {
	T := len(obs)
	alpha = make([][]float64, T)
	scale = make([]float64, T)
	alpha[0] = make([]float64, m.H)
	for i := 0; i < m.H; i++ {
		alpha[0][i] = m.Pi[i] * m.B[i][obs[0]]
		scale[0] += alpha[0][i]
	}
	if scale[0] == 0 {
		scale[0] = math.SmallestNonzeroFloat64
	}
	for i := range alpha[0] {
		alpha[0][i] /= scale[0]
	}
	for t := 1; t < T; t++ {
		alpha[t] = make([]float64, m.H)
		for j := 0; j < m.H; j++ {
			var sum float64
			for i := 0; i < m.H; i++ {
				sum += alpha[t-1][i] * m.A[i][j]
			}
			alpha[t][j] = sum * m.B[j][obs[t]]
			scale[t] += alpha[t][j]
		}
		if scale[t] == 0 {
			scale[t] = math.SmallestNonzeroFloat64
		}
		for j := range alpha[t] {
			alpha[t][j] /= scale[t]
		}
	}
	for _, c := range scale {
		logProb += math.Log(c)
	}
	return alpha, scale, logProb
}

func (m *jaggedModel) backward(obs []Symbol, scale []float64) [][]float64 {
	T := len(obs)
	beta := make([][]float64, T)
	beta[T-1] = make([]float64, m.H)
	for i := range beta[T-1] {
		beta[T-1][i] = 1 / scale[T-1]
	}
	for t := T - 2; t >= 0; t-- {
		beta[t] = make([]float64, m.H)
		for i := 0; i < m.H; i++ {
			var sum float64
			for j := 0; j < m.H; j++ {
				sum += m.A[i][j] * m.B[j][obs[t+1]] * beta[t+1][j]
			}
			beta[t][i] = sum / scale[t]
		}
	}
	return beta
}

func (m *jaggedModel) gammaMat(obs []Symbol) [][]float64 {
	alpha, scale, _ := m.forward(obs)
	beta := m.backward(obs, scale)
	T := len(obs)
	gamma := make([][]float64, T)
	for t := 0; t < T; t++ {
		gamma[t] = make([]float64, m.H)
		var norm float64
		for i := 0; i < m.H; i++ {
			gamma[t][i] = alpha[t][i] * beta[t][i]
			norm += gamma[t][i]
		}
		if norm > 0 {
			for i := range gamma[t] {
				gamma[t][i] /= norm
			}
		}
	}
	return gamma
}

func jaggedLogMatrix(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i, row := range m {
		out[i] = make([]float64, len(row))
		for j, p := range row {
			out[i][j] = safeLog(p)
		}
	}
	return out
}

func (m *jaggedModel) viterbi(obs []Symbol) ([]State, float64) {
	T := len(obs)
	logA := jaggedLogMatrix(m.A)
	logB := jaggedLogMatrix(m.B)
	delta := make([][]float64, T)
	psi := make([][]int, T)
	delta[0] = make([]float64, m.H)
	psi[0] = make([]int, m.H)
	for i := 0; i < m.H; i++ {
		delta[0][i] = safeLog(m.Pi[i]) + logB[i][obs[0]]
	}
	for t := 1; t < T; t++ {
		delta[t] = make([]float64, m.H)
		psi[t] = make([]int, m.H)
		for j := 0; j < m.H; j++ {
			best, bestI := math.Inf(-1), 0
			for i := 0; i < m.H; i++ {
				v := delta[t-1][i] + logA[i][j]
				if v > best {
					best, bestI = v, i
				}
			}
			delta[t][j] = best + logB[j][obs[t]]
			psi[t][j] = bestI
		}
	}
	best, bestI := math.Inf(-1), 0
	for i := 0; i < m.H; i++ {
		if delta[T-1][i] > best {
			best, bestI = delta[T-1][i], i
		}
	}
	path := make([]State, T)
	path[T-1] = State(bestI)
	for t := T - 2; t >= 0; t-- {
		path[t] = State(psi[t+1][path[t+1]])
	}
	return path, best
}

func (m *jaggedModel) renormalize() {
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

func (m *jaggedModel) baumWelch(obs []Symbol, maxIters int, tol float64) (float64, int) {
	if maxIters <= 0 {
		maxIters = 50
	}
	if tol <= 0 {
		tol = 1e-6
	}
	T := len(obs)
	prevLog := math.Inf(-1)
	var logProb float64
	iters := 0
	for iter := 0; iter < maxIters; iter++ {
		iters = iter + 1
		alpha, scale, lp := m.forward(obs)
		logProb = lp
		beta := m.backward(obs, scale)
		gamma := make([][]float64, T)
		xi := make([][][]float64, T-1)
		for t := 0; t < T; t++ {
			gamma[t] = make([]float64, m.H)
			if t < T-1 {
				xi[t] = make([][]float64, m.H)
				var norm float64
				for i := 0; i < m.H; i++ {
					xi[t][i] = make([]float64, m.H)
					for j := 0; j < m.H; j++ {
						xi[t][i][j] = alpha[t][i] * m.A[i][j] * m.B[j][obs[t+1]] * beta[t+1][j]
						norm += xi[t][i][j]
					}
				}
				if norm > 0 {
					for i := 0; i < m.H; i++ {
						for j := 0; j < m.H; j++ {
							xi[t][i][j] /= norm
							gamma[t][i] += xi[t][i][j]
						}
					}
				}
			} else {
				var norm float64
				for i := 0; i < m.H; i++ {
					gamma[t][i] = alpha[t][i] * beta[t][i]
					norm += gamma[t][i]
				}
				if norm > 0 {
					for i := range gamma[t] {
						gamma[t][i] /= norm
					}
				}
			}
		}
		for i := 0; i < m.H; i++ {
			m.Pi[i] = gamma[0][i]
		}
		for i := 0; i < m.H; i++ {
			var denom float64
			for t := 0; t < T-1; t++ {
				denom += gamma[t][i]
			}
			for j := 0; j < m.H; j++ {
				var num float64
				for t := 0; t < T-1; t++ {
					num += xi[t][i][j]
				}
				if denom > 0 {
					m.A[i][j] = num / denom
				}
			}
		}
		for j := 0; j < m.H; j++ {
			var denom float64
			for t := 0; t < T; t++ {
				denom += gamma[t][j]
			}
			for k := 0; k < m.M; k++ {
				var num float64
				for t := 0; t < T; t++ {
					if int(obs[t]) == k {
						num += gamma[t][j]
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
	return logProb, iters
}

func (m *jaggedModel) predictNextSymbol(lastState State) (Symbol, []float64) {
	dist := make([]float64, m.M)
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
	return Symbol(best), dist
}

// randomCase draws a random model and observation sequence.
func randomCase(rng *rand.Rand) (*Model, []Symbol) {
	h := 2 + rng.Intn(3)
	mm := 2 + rng.Intn(3)
	model, err := New(h, mm, rng.Int63())
	if err != nil {
		panic(err)
	}
	T := 1 + rng.Intn(40)
	obs := make([]Symbol, T)
	for t := range obs {
		obs[t] = Symbol(rng.Intn(mm))
	}
	return model, obs
}

func TestFlatForwardBackwardMatchesJagged(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		model, obs := randomCase(rng)
		ref := jaggedFrom(model)

		alpha, scale, lp, err := model.Forward(obs)
		if err != nil {
			t.Fatalf("trial %d: Forward: %v", trial, err)
		}
		wantAlpha, wantScale, wantLP := ref.forward(obs)
		if lp != wantLP {
			t.Fatalf("trial %d: logProb %v != %v", trial, lp, wantLP)
		}
		for tt := range wantAlpha {
			if scale[tt] != wantScale[tt] {
				t.Fatalf("trial %d: scale[%d] %v != %v", trial, tt, scale[tt], wantScale[tt])
			}
			for i := range wantAlpha[tt] {
				if alpha[tt][i] != wantAlpha[tt][i] {
					t.Fatalf("trial %d: alpha[%d][%d] %v != %v", trial, tt, i, alpha[tt][i], wantAlpha[tt][i])
				}
			}
		}

		beta, err := model.Backward(obs, scale)
		if err != nil {
			t.Fatalf("trial %d: Backward: %v", trial, err)
		}
		wantBeta := ref.backward(obs, wantScale)
		for tt := range wantBeta {
			for i := range wantBeta[tt] {
				if beta[tt][i] != wantBeta[tt][i] {
					t.Fatalf("trial %d: beta[%d][%d] %v != %v", trial, tt, i, beta[tt][i], wantBeta[tt][i])
				}
			}
		}
	}
}

func TestFlatGammaMatchesJagged(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		model, obs := randomCase(rng)
		ref := jaggedFrom(model)
		gamma, err := model.Gamma(obs)
		if err != nil {
			t.Fatalf("trial %d: Gamma: %v", trial, err)
		}
		want := ref.gammaMat(obs)
		for tt := range want {
			for i := range want[tt] {
				if gamma[tt][i] != want[tt][i] {
					t.Fatalf("trial %d: gamma[%d][%d] %v != %v", trial, tt, i, gamma[tt][i], want[tt][i])
				}
			}
		}
	}
}

func TestFlatViterbiMatchesJagged(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	s := NewScratch() // shared across trials of varying H, M and T
	for trial := 0; trial < 200; trial++ {
		model, obs := randomCase(rng)
		ref := jaggedFrom(model)
		path, logP, err := model.ViterbiInto(s, obs)
		if err != nil {
			t.Fatalf("trial %d: ViterbiInto: %v", trial, err)
		}
		wantPath, wantLogP := ref.viterbi(obs)
		if logP != wantLogP {
			t.Fatalf("trial %d: logP %v != %v", trial, logP, wantLogP)
		}
		for tt := range wantPath {
			if path[tt] != wantPath[tt] {
				t.Fatalf("trial %d: path[%d] %v != %v", trial, tt, path[tt], wantPath[tt])
			}
		}
	}
}

func TestFlatBaumWelchMatchesJagged(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	s := NewScratch()
	for trial := 0; trial < 100; trial++ {
		model, obs := randomCase(rng)
		if len(obs) < 2 {
			obs = append(obs, obs[0])
		}
		ref := jaggedFrom(model)

		lp, iters, err := model.BaumWelchInto(s, obs, 5, 1e-5)
		if err != nil {
			t.Fatalf("trial %d: BaumWelchInto: %v", trial, err)
		}
		wantLP, wantIters := ref.baumWelch(obs, 5, 1e-5)
		if lp != wantLP || iters != wantIters {
			t.Fatalf("trial %d: (logProb, iters) = (%v, %d), want (%v, %d)", trial, lp, iters, wantLP, wantIters)
		}
		for i := range ref.A {
			for j := range ref.A[i] {
				if model.A[i][j] != ref.A[i][j] {
					t.Fatalf("trial %d: A[%d][%d] %v != %v", trial, i, j, model.A[i][j], ref.A[i][j])
				}
			}
		}
		for i := range ref.B {
			for k := range ref.B[i] {
				if model.B[i][k] != ref.B[i][k] {
					t.Fatalf("trial %d: B[%d][%d] %v != %v", trial, i, k, model.B[i][k], ref.B[i][k])
				}
			}
		}
		for i := range ref.Pi {
			if model.Pi[i] != ref.Pi[i] {
				t.Fatalf("trial %d: Pi[%d] %v != %v", trial, i, model.Pi[i], ref.Pi[i])
			}
		}
	}
}

func TestFlatPredictNextSymbolMatchesJagged(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	scr := NewScratch()
	for trial := 0; trial < 200; trial++ {
		model, _ := randomCase(rng)
		ref := jaggedFrom(model)
		for s := 0; s < model.H; s++ {
			sym, dist, err := model.PredictNextSymbolInto(scr, State(s))
			if err != nil {
				t.Fatalf("trial %d: PredictNextSymbolInto: %v", trial, err)
			}
			wantSym, wantDist := ref.predictNextSymbol(State(s))
			if sym != wantSym {
				t.Fatalf("trial %d state %d: symbol %v != %v", trial, s, sym, wantSym)
			}
			for k := range wantDist {
				if dist[k] != wantDist[k] {
					t.Fatalf("trial %d state %d: dist[%d] %v != %v", trial, s, k, dist[k], wantDist[k])
				}
			}
		}
	}
}

// TestScratchReuseAcrossLengths interleaves kernel calls with growing and
// shrinking sequence lengths on one model and one scratch, checking no
// stale scratch content leaks into results.
func TestScratchReuseAcrossLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	model := NewPaperModel(7)
	s := NewScratch()
	lengths := []int{40, 3, 17, 1, 25, 2, 40, 8}
	for round, T := range lengths {
		obs := make([]Symbol, T)
		for i := range obs {
			obs[i] = Symbol(rng.Intn(model.M))
		}
		ref := jaggedFrom(model)

		alpha, scale, lp, err := model.ForwardInto(s, obs)
		if err != nil {
			t.Fatalf("round %d: ForwardInto: %v", round, err)
		}
		wantAlpha, wantScale, wantLP := ref.forward(obs)
		if lp != wantLP {
			t.Fatalf("round %d (T=%d): logProb %v != %v", round, T, lp, wantLP)
		}
		if len(alpha) != T || len(scale) != T {
			t.Fatalf("round %d: got %d alpha rows, %d scales, want %d", round, len(alpha), len(scale), T)
		}
		for tt := range wantAlpha {
			for i := range wantAlpha[tt] {
				if alpha[tt][i] != wantAlpha[tt][i] {
					t.Fatalf("round %d (T=%d): alpha[%d][%d] mismatch", round, T, tt, i)
				}
			}
			if scale[tt] != wantScale[tt] {
				t.Fatalf("round %d (T=%d): scale[%d] mismatch", round, T, tt)
			}
		}

		path, logP, err := model.ViterbiInto(s, obs)
		if err != nil {
			t.Fatalf("round %d: ViterbiInto: %v", round, err)
		}
		wantPath, wantLogP := ref.viterbi(obs)
		if logP != wantLogP || len(path) != T {
			t.Fatalf("round %d (T=%d): viterbi logP %v != %v (len %d)", round, T, logP, wantLogP, len(path))
		}
		for tt := range wantPath {
			if path[tt] != wantPath[tt] {
				t.Fatalf("round %d (T=%d): path[%d] mismatch", round, T, tt)
			}
		}

		if T >= 2 && round%2 == 1 {
			lp2, iters, err := model.BaumWelchInto(s, obs, 3, 1e-5)
			if err != nil {
				t.Fatalf("round %d: BaumWelchInto: %v", round, err)
			}
			wantLP2, wantIters := ref.baumWelch(obs, 3, 1e-5)
			if lp2 != wantLP2 || iters != wantIters {
				t.Fatalf("round %d (T=%d): BW (%v,%d) != (%v,%d)", round, T, lp2, iters, wantLP2, wantIters)
			}
			for i := range ref.A {
				for j := range ref.A[i] {
					if model.A[i][j] != ref.A[i][j] {
						t.Fatalf("round %d: post-BW A[%d][%d] mismatch", round, i, j)
					}
				}
			}
		}
	}
}

// TestSharedScratchMatchesFreshScratch pins what a CORP fleet relies on
// when all its models run on one Scratch: a model's kernels give the same
// bits whether their scratch is fresh or was last used by other models of
// other sizes and sequence lengths. Each trial draws a pool of models and
// runs Baum–Welch, Viterbi and Eq. 17 on every one of them, interleaved on
// one shared scratch, against clones that each get a fresh scratch per
// call.
func TestSharedScratchMatchesFreshScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	shared := NewScratch()
	for trial := 0; trial < 50; trial++ {
		type pair struct {
			shared, fresh *Model
			obs           []Symbol
		}
		pool := make([]pair, 1+rng.Intn(4))
		for i := range pool {
			model, obs := randomCase(rng)
			if len(obs) < 2 {
				obs = append(obs, obs[0])
			}
			clone := jaggedFrom(model)
			pool[i] = pair{model, &Model{H: model.H, M: model.M, A: clone.A, B: clone.B, Pi: clone.Pi}, obs}
		}
		for round := 0; round < 2; round++ {
			for i, p := range pool {
				lp1, it1, err1 := p.shared.BaumWelchInto(shared, p.obs, 3, 1e-5)
				lp2, it2, err2 := p.fresh.BaumWelchInto(NewScratch(), p.obs, 3, 1e-5)
				if err1 != nil || err2 != nil {
					t.Fatalf("trial %d model %d: BaumWelchInto: %v / %v", trial, i, err1, err2)
				}
				if lp1 != lp2 || it1 != it2 {
					t.Fatalf("trial %d model %d: BW (%v,%d) on shared scratch, (%v,%d) on fresh", trial, i, lp1, it1, lp2, it2)
				}
				path1, v1, err1 := p.shared.ViterbiInto(shared, p.obs)
				path2, v2, err2 := p.fresh.ViterbiInto(NewScratch(), p.obs)
				if err1 != nil || err2 != nil {
					t.Fatalf("trial %d model %d: ViterbiInto: %v / %v", trial, i, err1, err2)
				}
				if v1 != v2 || !slices.Equal(path1, path2) {
					t.Fatalf("trial %d model %d: Viterbi (%v, %v) on shared scratch, (%v, %v) on fresh", trial, i, path1, v1, path2, v2)
				}
				last := path1[len(path1)-1]
				sym1, dist1, _ := p.shared.PredictNextSymbolInto(shared, last)
				sym2, dist2, _ := p.fresh.PredictNextSymbolInto(NewScratch(), last)
				if sym1 != sym2 || !slices.Equal(dist1, dist2) {
					t.Fatalf("trial %d model %d: Eq. 17 (%v, %v) on shared scratch, (%v, %v) on fresh", trial, i, sym1, dist1, sym2, dist2)
				}
			}
		}
		for i, p := range pool {
			for r := range p.shared.A {
				if !slices.Equal(p.shared.A[r], p.fresh.A[r]) || !slices.Equal(p.shared.B[r], p.fresh.B[r]) {
					t.Fatalf("trial %d model %d: re-estimated row %d differs", trial, i, r)
				}
			}
			if !slices.Equal(p.shared.Pi, p.fresh.Pi) {
				t.Fatalf("trial %d model %d: re-estimated π differs", trial, i)
			}
		}
	}
}
