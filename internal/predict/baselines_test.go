package predict

import (
	"math/rand"
	"testing"

	"repro/internal/resource"
)

// TestRCCRForecastStaleness verifies the long-horizon commitment: with
// RefreshEvery = 3, consecutive Predict calls return the same cached
// vector until the third call recomputes it.
func TestRCCRForecastStaleness(t *testing.T) {
	p := NewRCCRPredictor(RCCRConfig{}, testCap)
	// Rising series so a refresh necessarily changes the forecast.
	level := 0.5
	feed := func(n int) {
		for i := 0; i < n; i++ {
			level += 0.05
			p.Observe(resource.New(level, level*4, level*45))
		}
	}
	feed(30)
	a := p.Predict().Unused
	feed(6)
	b := p.Predict().Unused
	if a != b {
		t.Errorf("second window should reuse the stale forecast: %v vs %v", a, b)
	}
	feed(6)
	c := p.Predict().Unused
	if a != c {
		t.Errorf("third window should still be cached: %v vs %v", a, c)
	}
	feed(6)
	d := p.Predict().Unused
	if d == a {
		t.Error("fourth Predict should refresh the forecast")
	}
	if d.At(resource.CPU) <= a.At(resource.CPU) {
		t.Errorf("refreshed forecast should track the rise: %v vs %v",
			d.At(resource.CPU), a.At(resource.CPU))
	}
}

// TestDRARefreshStaleness verifies DRA's periodic estimation: the cached
// mean persists for RefreshEvery predictions.
func TestDRARefreshStaleness(t *testing.T) {
	p := NewDRAPredictor(DRAConfig{AvgLen: 4, RefreshEvery: 3}, testCap)
	for i := 0; i < 8; i++ {
		p.Observe(resource.New(1, 4, 45))
	}
	a := p.Predict().Unused
	// Level doubles; the next two predictions stay stale.
	for i := 0; i < 8; i++ {
		p.Observe(resource.New(2, 8, 90))
	}
	if got := p.Predict().Unused; got != a {
		t.Errorf("second Predict should be stale: %v vs %v", got, a)
	}
	if got := p.Predict().Unused; got != a {
		t.Errorf("third Predict should be stale: %v vs %v", got, a)
	}
	refreshed := p.Predict().Unused
	if refreshed.At(resource.CPU) <= a.At(resource.CPU) {
		t.Errorf("fourth Predict should refresh upward: %v vs %v",
			refreshed.At(resource.CPU), a.At(resource.CPU))
	}
}

// TestCloudScaleSignatureCache verifies the periodogram result is reused
// between refreshes (behavioural check: prediction stays on the signature
// path for the cached windows even after the underlying pattern breaks).
func TestCloudScaleSignatureCache(t *testing.T) {
	p := NewCloudScalePredictor(CloudScaleConfig{PadFactor: 0.01}, testCap)
	push := func(v float64) { p.Observe(resource.New(v, v*4, v*45)) }
	// Strong period-8 sine.
	for i := 0; i < 96; i++ {
		push(2 + sin8(i))
	}
	first := p.Predict()
	if first.Unused.At(resource.CPU) < 0.5 {
		t.Fatalf("sine forecast too low: %v", first.Unused)
	}
	// sigRefresh = 4: three more Predicts reuse the cached detection.
	for k := 0; k < 3; k++ {
		for i := 0; i < 6; i++ {
			push(2)
		}
		p.Predict()
	}
	if p.calls != 4 {
		t.Fatalf("calls = %d", p.calls)
	}
}

func sin8(i int) float64 {
	table := []float64{0, 0.707, 1, 0.707, 0, -0.707, -1, -0.707}
	return table[i%8]
}

// TestPredictorInterfaceCompliance pins all four implementations to the
// Predictor contract at compile time and exercises the shared surface.
func TestPredictorInterfaceCompliance(t *testing.T) {
	brain, err := NewCorpBrain(CorpConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	preds := []Predictor{
		NewCorpPredictor(brain, testCap, 1),
		NewRCCRPredictor(RCCRConfig{}, testCap),
		NewCloudScalePredictor(CloudScaleConfig{}, testCap),
		NewDRAPredictor(DRAConfig{}, testCap),
	}
	names := map[string]bool{}
	for _, p := range preds {
		names[p.Name()] = true
		for i := 0; i < 20; i++ {
			p.Observe(resource.New(1, 4, 45))
		}
		pred := p.Predict()
		if !pred.Unused.NonNegative() || !pred.Unused.FitsIn(testCap) {
			t.Errorf("%s: prediction %v out of range", p.Name(), pred.Unused)
		}
		if out := p.DrainOutcomes(); out == nil {
			// Nothing matured yet; legal.
			_ = out
		}
	}
	for _, want := range []string{"CORP", "RCCR", "CloudScale", "DRA"} {
		if !names[want] {
			t.Errorf("missing predictor %q", want)
		}
	}
}

// TestHistoryRingsSizedToReads pins the ring sizes RCCR, DRA and the
// oracle get: their history reads reach back at most max(AvgLen, L) slots,
// so over 500 random slots each must predict, and mature errors, exactly
// as a twin built on the 120-slot rings every tracker used to carry.
func TestHistoryRingsSizedToReads(t *testing.T) {
	const L, slots, longRing = 6, 500, 120
	wide := func() tracker {
		s := newTrackerSlab(1, L, longRing, false)
		return s.tracker(0, testCap)
	}
	rccr := NewRCCRFleet(RCCRConfig{Window: L}, []resource.Vector{testCap, testCap})
	rccr[1].track = wide()
	// AvgLen above 2L, so DRA's ring is sized by its own read.
	draCfg := DRAConfig{Window: L, AvgLen: 20}
	dra := NewDRAFleet(draCfg, []resource.Vector{testCap, testCap})
	dra[1].track = wide()
	oracle := NewOracleFleet(L, []resource.Vector{testCap, testCap})
	oracle[1].track = wide()
	// A ring's size shows in the mean it keeps of the ramp 1..200: the
	// last c values average 200 − (c−1)/2.
	ringLen := func(tr *tracker) int {
		for i := 1; i <= 200; i++ {
			tr.hist[0].Push(float64(i))
		}
		return int(2*(200-tr.histMean(0)) + 1)
	}
	caps := []resource.Vector{testCap}
	twin := wide()
	for _, ring := range []struct {
		name      string
		got, want int
	}{
		{"RCCR", ringLen(&NewRCCRFleet(RCCRConfig{Window: L}, caps)[0].track), 2 * L},
		{"DRA", ringLen(&NewDRAFleet(draCfg, caps)[0].track), 20},
		{"Oracle", ringLen(&NewOracleFleet(L, caps)[0].track), 2 * L},
		{"wide twin", ringLen(&twin), longRing},
	} {
		if ring.got != ring.want {
			t.Fatalf("%s ring holds %d slots, want %d", ring.name, ring.got, ring.want)
		}
	}
	pairs := [][2]Predictor{
		{&rccr[0], &rccr[1]},
		{&dra[0], &dra[1]},
		{&oracle[0], &oracle[1]},
	}
	rng := rand.New(rand.NewSource(11))
	series := make([]resource.Vector, slots)
	for i := range series {
		series[i] = resource.New(rng.Float64()*testCap[0], rng.Float64()*testCap[1], rng.Float64()*testCap[2])
	}
	// The oracle reads the future for the first half, then falls back to
	// its history.
	oracle[0].SetFuture(series[:slots/2])
	oracle[1].SetFuture(series[:slots/2])
	for i, v := range series {
		for _, pr := range pairs {
			pr[0].Observe(v)
			pr[1].Observe(v)
			if i%L != 0 {
				continue
			}
			a, b := pr[0].Predict(), pr[1].Predict()
			if a != b {
				t.Fatalf("%s slot %d: %v with the short ring, %v with %d slots", pr[0].Name(), i, a, b, longRing)
			}
			ea, eb := pr[0].AppendOutcomes(nil), pr[1].AppendOutcomes(nil)
			if len(ea) != len(eb) {
				t.Fatalf("%s slot %d: %d matured errors vs %d", pr[0].Name(), i, len(ea), len(eb))
			}
			for j := range ea {
				if ea[j] != eb[j] {
					t.Fatalf("%s slot %d: error %v vs %v", pr[0].Name(), i, ea[j], eb[j])
				}
			}
		}
	}
}
