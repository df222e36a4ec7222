package predict

import (
	"testing"

	"repro/internal/dnn"
	"repro/internal/resource"
)

func historySeries(t *testing.T, n, horizon int) ([][]resource.Vector, []resource.Vector) {
	t.Helper()
	series := residentUnusedSeries(t, 21, n, horizon)
	caps := make([]resource.Vector, n)
	for i := range caps {
		caps[i] = testCap
	}
	return series, caps
}

func TestBuildDatasetShapes(t *testing.T) {
	series, caps := historySeries(t, 3, 60)
	datasets, err := BuildDataset(series, caps, 12, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Each VM contributes horizon − Δ − L + 1 = 60 − 18 + 1 = 43 samples.
	want := 3 * 43
	for _, k := range resource.Kinds() {
		if len(datasets[k]) != want {
			t.Errorf("kind %v: %d samples, want %d", k, len(datasets[k]), want)
		}
		s := datasets[k][0]
		if len(s.Input) != 12 || len(s.Target) != 1 {
			t.Fatalf("sample shape %d/%d", len(s.Input), len(s.Target))
		}
		for _, x := range append(append([]float64(nil), s.Input...), s.Target...) {
			if x < 0 || x > 1 {
				t.Fatalf("unnormalized value %v", x)
			}
		}
	}
}

func TestBuildDatasetValidation(t *testing.T) {
	if _, err := BuildDataset(nil, nil, 12, 6); err == nil {
		t.Error("empty history should fail")
	}
	series, caps := historySeries(t, 2, 60)
	if _, err := BuildDataset(series, caps[:1], 12, 6); err == nil {
		t.Error("mismatched capacities should fail")
	}
	if _, err := BuildDataset(series, caps, 0, 6); err == nil {
		t.Error("zero input slots should fail")
	}
	// Series shorter than Δ+L leave the dataset empty.
	short, shortCaps := historySeries(t, 2, 10)
	if _, err := BuildDataset(short, shortCaps, 12, 6); err == nil {
		t.Error("too-short history should fail")
	}
}

func TestPretrainBrainImprovesColdPredictions(t *testing.T) {
	series, caps := historySeries(t, 8, 240)
	eval := residentUnusedSeries(t, 77, 1, 300)[0]

	run := func(pretrained bool) float64 {
		brain, err := NewCorpBrain(CorpConfig{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if pretrained {
			if _, err := PretrainBrain(brain, series, caps, dnn.ParallelOptions{
				TrainOptions: dnn.TrainOptions{MaxEpochs: 20, Seed: 5},
				Workers:      2,
			}); err != nil {
				t.Fatal(err)
			}
		}
		p := NewCorpPredictor(brain, testCap, 5)
		// Short warmup only: a cold brain stays bad, a pretrained one is
		// already calibrated.
		for s := 0; s < 30; s++ {
			p.Observe(eval[s])
		}
		var absErr float64
		n := 0
		for s := 30; s+6 <= len(eval); s += 6 {
			pred := p.Predict().Unused.At(resource.CPU)
			var actual float64
			for i := 0; i < 6; i++ {
				actual += eval[s+i].At(resource.CPU) / 6
				p.Observe(eval[s+i])
			}
			diff := actual - pred
			if diff < 0 {
				diff = -diff
			}
			absErr += diff
			n++
		}
		return absErr / float64(n)
	}
	cold := run(false)
	warm := run(true)
	t.Logf("mean |err|: cold=%.3f pretrained=%.3f", cold, warm)
	if warm >= cold {
		t.Errorf("pretraining did not help: cold %.3f vs warm %.3f", cold, warm)
	}
}

func TestPretrainResultsCoverAllKinds(t *testing.T) {
	series, caps := historySeries(t, 4, 120)
	brain, err := NewCorpBrain(CorpConfig{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	results, err := PretrainBrain(brain, series, caps, dnn.ParallelOptions{
		TrainOptions: dnn.TrainOptions{MaxEpochs: 5, Seed: 6},
		Workers:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != resource.NumKinds {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.Samples == 0 || r.Epochs == 0 {
			t.Errorf("kind %v: empty result %+v", r.Kind, r)
		}
	}
	if trainSteps(brain) == 0 {
		t.Error("train steps not accounted")
	}
}
