package predict

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/job"
	"repro/internal/resource"
	"repro/internal/trace"
)

var testCap = resource.New(4, 16, 180)

// newTracker returns a tracker of one, with a history-sized linearization
// buffer.
func newTracker(window, histLen int, capacity resource.Vector) *tracker {
	slab := newTrackerSlab(1, window, histLen, true)
	tr := slab.tracker(0, capacity)
	return &tr
}

func TestTrackerMaturation(t *testing.T) {
	tr := newTracker(3, 30, testCap)
	// Observe 5 slots of constant unused <2,8,90>.
	for i := 0; i < 5; i++ {
		tr.observe(resource.New(2, 8, 90))
	}
	tr.recordPrediction(resource.New(1, 8, 90)) // under-predicts CPU by 1
	if len(tr.matured) != 0 {
		t.Fatal("prediction matured too early")
	}
	tr.observe(resource.New(2, 8, 90))
	tr.observe(resource.New(2, 8, 90))
	if len(tr.matured) != 0 {
		t.Fatal("prediction matured after 2 of 3 slots")
	}
	tr.observe(resource.New(2, 8, 90))
	if len(tr.matured) != resource.NumKinds {
		t.Fatalf("matured %d samples, want %d", len(tr.matured), resource.NumKinds)
	}
	// CPU error = actual mean 2 − predicted 1 = +1.
	var cpuErr float64
	for _, s := range tr.matured {
		if s.Kind == resource.CPU {
			cpuErr = s.Error
		}
	}
	if math.Abs(cpuErr-1) > 1e-9 {
		t.Errorf("CPU error = %v, want 1", cpuErr)
	}
	out := tr.drainOutcomes()
	if len(out) != resource.NumKinds || len(tr.drainOutcomes()) != 0 {
		t.Error("drain should empty the matured list")
	}
}

func TestTrackerErrWithin(t *testing.T) {
	tr := newTracker(2, 30, testCap)
	// Manufacture error history: CPU errors {0.1, 0.2, -0.5, 0.3}.
	for _, e := range []float64{0.1, 0.2, -0.5, 0.3} {
		tr.errs[resource.CPU].Push(e)
	}
	// ε = 0.1 relative → tolerance = 0.4 cores: errors in [0, 0.4) are
	// 0.1, 0.2, 0.3 → 3/4.
	frac, n := tr.errWithin(resource.CPU, 0.1)
	if n != 4 || math.Abs(frac-0.75) > 1e-12 {
		t.Errorf("errWithin = (%v, %d), want (0.75, 4)", frac, n)
	}
	frac, n = tr.errWithin(resource.Memory, 0.1)
	if n != 0 || frac != 0 {
		t.Errorf("empty errWithin = (%v, %d)", frac, n)
	}
}

func TestCorpBrainTopologyMatchesTableII(t *testing.T) {
	b, err := NewCorpBrain(CorpConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// h = 4 layers: input, two hidden layers of 50 units, output.
	if b.cfg.HiddenLayers != 2 || b.cfg.UnitsPerLayer != 50 {
		t.Errorf("%d hidden layers of %d units, want 2 of 50 (Table II)", b.cfg.HiddenLayers, b.cfg.UnitsPerLayer)
	}
}

func newCorp(t *testing.T, cfg CorpConfig) *CorpPredictor {
	t.Helper()
	brain, err := NewCorpBrain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewCorpPredictor(brain, testCap, 1)
}

func TestCorpColdStartSafe(t *testing.T) {
	p := newCorp(t, CorpConfig{Seed: 1})
	pred := p.Predict()
	if !pred.Unused.NonNegative() {
		t.Errorf("cold prediction %v negative", pred.Unused)
	}
	if pred.Unlocked {
		t.Error("cold predictor must not be unlocked (no error evidence)")
	}
}

// fluctuating emits a mean-reverting series with *persistent* peak/valley
// burst regimes around base — the fluctuation structure of the paper's
// short-lived jobs (bursts last for minutes, i.e. multiple windows, not
// single slots). State is carried in the rng-adjacent closure variables so
// successive calls continue the same process.
type fluctuatingProcess struct {
	rng    *rand.Rand
	level  float64
	regime int // 0 normal, +1 peak, −1 valley
}

func newFluctuating(rng *rand.Rand) *fluctuatingProcess {
	return &fluctuatingProcess{rng: rng, level: 1}
}

func (f *fluctuatingProcess) next(base, amp float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch f.regime {
		case 0:
			if f.rng.Float64() < 0.10 {
				if f.rng.Float64() < 0.5 {
					f.regime = 1
				} else {
					f.regime = -1
				}
			}
		default:
			if f.rng.Float64() < 0.08 { // mean burst length ≈ 12 slots
				f.regime = 0
			}
		}
		f.level += 0.4*(1-f.level) + 0.08*f.rng.NormFloat64()
		v := base * f.level
		switch f.regime {
		case 1:
			v *= 1 + amp
		case -1:
			v *= 1 - amp
		}
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
	return out
}

// fluctuating is a convenience for one-shot series.
func fluctuating(rng *rand.Rand, base, amp float64, n int) []float64 {
	return newFluctuating(rng).next(base, amp, n)
}

func feedSeries(p Predictor, series []float64) {
	for _, v := range series {
		// CPU fluctuates; MEM/storage held proportional for simplicity.
		p.Observe(resource.New(v, v*4, v*45))
	}
}

func TestCorpPredictionsBoundedAndUnlockable(t *testing.T) {
	p := newCorp(t, CorpConfig{Seed: 2, Pth: 0.2, Epsilon: 0.3})
	rng := rand.New(rand.NewSource(3))
	series := fluctuating(rng, 2.0, 0.4, 60)
	feedSeries(p, series)
	unlockedSeen := false
	for i := 0; i < 30; i++ {
		pred := p.Predict()
		if !pred.Unused.NonNegative() || !pred.Unused.FitsIn(testCap) {
			t.Fatalf("prediction %v outside [0, capacity]", pred.Unused)
		}
		if pred.Unlocked {
			unlockedSeen = true
		}
		feedSeries(p, fluctuating(rng, 2.0, 0.4, 6))
	}
	if !unlockedSeen {
		t.Error("with a loose gate (Pth=0.2, ε=0.3) the predictor should unlock")
	}
}

func TestCorpCIBiasesLow(t *testing.T) {
	// With CI enabled, matured errors (actual − predicted) should skew
	// positive: the predictor under-promises.
	p := newCorp(t, CorpConfig{Seed: 4, Eta: 0.9})
	rng := rand.New(rand.NewSource(5))
	feedSeries(p, fluctuating(rng, 2.0, 0.5, 40))
	for i := 0; i < 40; i++ {
		p.Predict()
		feedSeries(p, fluctuating(rng, 2.0, 0.5, 6))
	}
	outcomes := p.DrainOutcomes()
	if len(outcomes) == 0 {
		t.Fatal("no matured outcomes")
	}
	pos := 0
	cpu := 0
	for _, o := range outcomes {
		if o.Kind != resource.CPU {
			continue
		}
		cpu++
		if o.Error >= 0 {
			pos++
		}
	}
	if cpu == 0 {
		t.Fatal("no CPU outcomes")
	}
	if frac := float64(pos) / float64(cpu); frac < 0.6 {
		t.Errorf("only %.0f%% of errors non-negative; CI bias too weak", frac*100)
	}
}

func TestCorpAblationsChangeOutput(t *testing.T) {
	mk := func(cfg CorpConfig) resource.Vector {
		p := newCorp(t, cfg)
		rng := rand.New(rand.NewSource(7))
		feedSeries(p, fluctuating(rng, 2.0, 0.6, 60))
		// Mature enough predictions that σ̂ has samples past the
		// cold-skip exclusion.
		for i := 0; i < 15; i++ {
			p.Predict()
			feedSeries(p, fluctuating(rng, 2.0, 0.6, 6))
		}
		return p.Predict().Unused
	}
	full := mk(CorpConfig{Seed: 9})
	noHMM := mk(CorpConfig{Seed: 9, DisableHMM: true})
	noCI := mk(CorpConfig{Seed: 9, DisableCI: true})
	if full == noCI {
		t.Error("disabling CI should change the prediction")
	}
	// The no-CI prediction should be at least as large (CI subtracts).
	for _, k := range resource.Kinds() {
		if noCI.At(k)+1e-9 < full.At(k) {
			t.Errorf("kind %v: no-CI %v < full %v", k, noCI.At(k), full.At(k))
		}
	}
	_ = noHMM // HMM may or may not fire on this series; just ensure it runs
}

func TestRCCRTracksRamp(t *testing.T) {
	p := NewRCCRPredictor(RCCRConfig{Eta: 0.5}, testCap)
	// Steadily rising unused CPU: forecast should rise too.
	for i := 0; i < 40; i++ {
		p.Observe(resource.New(float64(i)*0.05, 8, 90))
	}
	pred := p.Predict()
	if pred.Unused.At(resource.CPU) < 1.5 {
		t.Errorf("RCCR forecast %v did not track the ramp", pred.Unused.At(resource.CPU))
	}
	if !pred.Unlocked {
		t.Error("RCCR is always unlocked")
	}
}

func TestRCCRColdStart(t *testing.T) {
	p := NewRCCRPredictor(RCCRConfig{}, testCap)
	pred := p.Predict()
	if !pred.Unused.NonNegative() {
		t.Error("cold RCCR prediction negative")
	}
}

func TestCloudScaleSignaturePath(t *testing.T) {
	p := NewCloudScalePredictor(CloudScaleConfig{PadFactor: 0.01}, testCap)
	// Strong period-12 sine in CPU: signature should be found and the
	// forecast should be finite and in range.
	for i := 0; i < 120; i++ {
		v := 2 + math.Sin(2*math.Pi*float64(i)/12)
		p.Observe(resource.New(v, 8, 90))
	}
	pred := p.Predict()
	cpu := pred.Unused.At(resource.CPU)
	if cpu < 0.5 || cpu > 3.5 {
		t.Errorf("CloudScale sine forecast = %v, want ≈ 2", cpu)
	}
	if !pred.Unlocked {
		t.Error("CloudScale is always unlocked")
	}
}

func TestCloudScaleMarkovFallback(t *testing.T) {
	p := NewCloudScalePredictor(CloudScaleConfig{PadFactor: 0.1}, testCap)
	rng := rand.New(rand.NewSource(13))
	feedSeries(p, fluctuating(rng, 2.0, 0.5, 100))
	pred := p.Predict()
	if !pred.Unused.NonNegative() || !pred.Unused.FitsIn(testCap) {
		t.Errorf("Markov-path prediction %v out of range", pred.Unused)
	}
}

func TestCloudScalePaddingLowersForecast(t *testing.T) {
	run := func(pad float64) float64 {
		p := NewCloudScalePredictor(CloudScaleConfig{PadFactor: pad}, testCap)
		rng := rand.New(rand.NewSource(17))
		feedSeries(p, fluctuating(rng, 2.0, 0.5, 100))
		return p.Predict().Unused.At(resource.CPU)
	}
	if run(1.5) >= run(0.1) {
		t.Error("larger padding should lower the forecast")
	}
}

func TestDRAPredictsWindowMean(t *testing.T) {
	p := NewDRAPredictor(DRAConfig{AvgLen: 4}, testCap)
	for _, v := range []float64{1, 1, 1, 1, 2, 2, 2, 2} {
		p.Observe(resource.New(v, 8, 90))
	}
	pred := p.Predict()
	if math.Abs(pred.Unused.At(resource.CPU)-2) > 1e-9 {
		t.Errorf("DRA mean = %v, want 2 (last 4 samples)", pred.Unused.At(resource.CPU))
	}
	if pred.Unlocked {
		t.Error("DRA must never unlock (demand-based, not opportunistic)")
	}
}

// TestComparativeAccuracy is the Fig. 6 shape check in miniature: on
// trace-derived unused-resource series, the rate of correct predictions
// (error in [0, ε·cap)) must follow the paper's ordering
// CORP > RCCR > CloudScale ≥ DRA.
func TestComparativeAccuracy(t *testing.T) {
	const (
		nPretrain = 20
		nEval     = 8
		horizon   = 600
		warm      = 80
		window    = 6
		eps       = 0.10
	)
	all := residentUnusedSeries(t, 5, nPretrain+nEval, horizon)
	pretrain, eval := all[:nPretrain], all[nPretrain:]

	brain, err := NewCorpBrain(CorpConfig{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	for i, series := range pretrain {
		sib := NewCorpPredictor(brain, testCap, int64(i))
		for _, v := range series {
			sib.Observe(v)
		}
	}
	mks := map[string]func(i int) Predictor{
		"CORP":       func(i int) Predictor { return NewCorpPredictor(brain, testCap, int64(100+i)) },
		"RCCR":       func(i int) Predictor { return NewRCCRPredictor(RCCRConfig{}, testCap) },
		"CloudScale": func(i int) Predictor { return NewCloudScalePredictor(CloudScaleConfig{}, testCap) },
		"DRA":        func(i int) Predictor { return NewDRAPredictor(DRAConfig{}, testCap) },
	}
	rates := map[string]float64{}
	for name, mk := range mks {
		var correct, total float64
		for i, series := range eval {
			p := mk(i)
			for _, v := range series[:warm] {
				p.Observe(v)
			}
			for sIdx := warm; sIdx+window <= len(series); sIdx += window {
				p.Predict()
				for _, v := range series[sIdx : sIdx+window] {
					p.Observe(v)
				}
				for _, o := range p.DrainOutcomes() {
					if o.Kind != resource.CPU {
						continue
					}
					total++
					if o.Error >= 0 && o.Error < eps*testCap.At(resource.CPU) {
						correct++
					}
				}
			}
		}
		if total == 0 {
			t.Fatalf("%s produced no outcomes", name)
		}
		rates[name] = correct / total
	}
	t.Logf("correct rates: CORP=%.2f RCCR=%.2f CloudScale=%.2f DRA=%.2f",
		rates["CORP"], rates["RCCR"], rates["CloudScale"], rates["DRA"])
	if !(rates["CORP"] > rates["RCCR"]) {
		t.Errorf("CORP %.2f should beat RCCR %.2f", rates["CORP"], rates["RCCR"])
	}
	if !(rates["RCCR"] > rates["CloudScale"]) {
		t.Errorf("RCCR %.2f should beat CloudScale %.2f", rates["RCCR"], rates["CloudScale"])
	}
	if rates["CloudScale"] < rates["DRA"]-0.03 {
		t.Errorf("CloudScale %.2f should not trail DRA %.2f", rates["CloudScale"], rates["DRA"])
	}
}

// residentUnusedSeries builds per-VM unused-resource series from trace
// residents, the real prediction target of the system.
func residentUnusedSeries(t *testing.T, seed int64, n, horizon int) [][]resource.Vector {
	t.Helper()
	caps := make([]resource.Vector, n)
	for i := range caps {
		caps[i] = testCap
	}
	res, err := trace.GenerateResidents(trace.ResidentConfig{Seed: seed, Horizon: horizon}, caps, job.ID(0))
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]resource.Vector, n)
	for i, r := range res {
		series := make([]resource.Vector, horizon)
		for sIdx := 0; sIdx < horizon; sIdx++ {
			series[sIdx] = r.UnusedAt(sIdx)
		}
		out[i] = series
	}
	return out
}

func BenchmarkCorpPredict(b *testing.B) {
	brain, err := NewCorpBrain(CorpConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	p := NewCorpPredictor(brain, testCap, 1)
	rng := rand.New(rand.NewSource(1))
	feedSeries(p, fluctuating(rng, 2.0, 0.5, 60))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Predict()
	}
}

func BenchmarkCorpObserve(b *testing.B) {
	brain, err := NewCorpBrain(CorpConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	p := NewCorpPredictor(brain, testCap, 1)
	rng := rand.New(rand.NewSource(1))
	feedSeries(p, fluctuating(rng, 2.0, 0.5, 60))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Observe(resource.New(2, 8, 90))
	}
}

func BenchmarkRCCRPredict(b *testing.B) {
	p := NewRCCRPredictor(RCCRConfig{}, testCap)
	rng := rand.New(rand.NewSource(1))
	feedSeries(p, fluctuating(rng, 2.0, 0.5, 60))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Predict()
	}
}

func BenchmarkCloudScalePredict(b *testing.B) {
	p := NewCloudScalePredictor(CloudScaleConfig{}, testCap)
	rng := rand.New(rand.NewSource(1))
	feedSeries(p, fluctuating(rng, 2.0, 0.5, 60))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Predict()
	}
}
