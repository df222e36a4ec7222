package predict

import (
	"math"
	"testing"

	"repro/internal/resource"
)

// Steady-state allocation tests for the per-VM refresh hot path: once the
// history and scratch are warm, the full Predict pipeline — DNN forward,
// hmmCorrect (symbolize, periodic Baum–Welch, Viterbi, Eq. 17), CI
// adjustment — and the baselines' Predict must stay off the heap.

// fluctVector varies enough that the symbolizer thresholds stay
// non-degenerate and all hmmCorrect branches remain live.
func fluctVector(i int) resource.Vector {
	f := 0.35 + 0.25*math.Sin(float64(i)/5) + 0.05*float64(i%7)
	return resource.Vector{8 * f, 16 * f * 0.9, 100 * f * 0.7}
}

func TestHMMCorrectPathDoesNotAllocate(t *testing.T) {
	brain, err := NewCorpBrain(CorpConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := NewCorpPredictor(brain, resource.Vector{8, 16, 100}, 1)
	// Warm through several refit periods so the Baum–Welch scratch is grown.
	i := 0
	for ; i < 160; i++ {
		p.Observe(fluctVector(i))
		p.Predict()
	}
	var out []ErrorSample
	if avg := testing.AllocsPerRun(64, func() {
		p.Observe(fluctVector(i))
		p.Predict()
		out = p.AppendOutcomes(out[:0])
		i++
	}); avg != 0 {
		t.Errorf("CORP observe+predict+drain allocates %.2f/op after warmup", avg)
	}
}

// TestHMMCorrectDirectDoesNotAllocate exercises hmmCorrect itself (the
// satellite's named target) including the refit iteration.
func TestHMMCorrectDirectDoesNotAllocate(t *testing.T) {
	brain, err := NewCorpBrain(CorpConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := NewCorpPredictor(brain, resource.Vector{8, 16, 100}, 1)
	for i := 0; i < 160; i++ {
		p.Observe(fluctVector(i))
		p.Predict()
	}
	vals := p.track.histValues(resource.CPU)
	if len(vals) < p.cfg.InputSlots*p.cfg.Window {
		t.Fatalf("history not warm: %d values", len(vals))
	}
	if avg := testing.AllocsPerRun(64, func() {
		p.predictions++ // cycle through refit and non-refit calls
		p.hmmCorrect(resource.CPU, vals, 3.5)
	}); avg != 0 {
		t.Errorf("hmmCorrect allocates %.2f/op after warmup", avg)
	}
}

func TestBaselinePredictDoesNotAllocate(t *testing.T) {
	capacity := resource.Vector{8, 16, 100}
	rccr := NewRCCRPredictor(RCCRConfig{}, capacity)
	cs := NewCloudScalePredictor(CloudScaleConfig{}, capacity)
	dra := NewDRAPredictor(DRAConfig{}, capacity)
	preds := []Predictor{rccr, cs, dra}
	i := 0
	for ; i < 160; i++ {
		v := fluctVector(i)
		for _, p := range preds {
			p.Observe(v)
			p.Predict()
		}
	}
	var out []ErrorSample
	for _, p := range preds {
		if avg := testing.AllocsPerRun(64, func() {
			p.Observe(fluctVector(i))
			p.Predict()
			out = p.AppendOutcomes(out[:0])
			i++
		}); avg != 0 {
			t.Errorf("%s observe+predict+drain allocates %.2f/op after warmup", p.Name(), avg)
		}
	}
}
