package predict

import (
	"testing"

	"repro/internal/resource"
)

// tinyCorpConfig keeps the DNN small so ring-wraparound tests that need
// thousands of training calls stay fast.
func tinyCorpConfig(seed int64) CorpConfig {
	return CorpConfig{
		InputSlots: 2, Window: 2, HiddenLayers: 1, UnitsPerLayer: 3,
		ReplaySteps: 2, Seed: seed,
	}
}

// trainSteps sums the brain's SGD update count over resource kinds.
func trainSteps(b *CorpBrain) int {
	n := 0
	for k := range b.kinds {
		n += b.kinds[k].steps
	}
	return n
}

// TestBrainTrainErrorsCounted pins the satellite bugfix: a malformed
// training sample must be rejected, counted, and must not advance the
// step counter — previously the error was silently discarded.
func TestBrainTrainErrorsCounted(t *testing.T) {
	b, err := NewCorpBrain(tinyCorpConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if b.TrainErrors() != 0 {
		t.Fatalf("fresh brain reports %d errors", b.TrainErrors())
	}
	if err := b.train(resource.CPU, []float64{0.5}, 0.5); err == nil {
		t.Fatal("wrong-length input accepted")
	}
	if b.TrainErrors() != 1 {
		t.Fatalf("TrainErrors = %d, want 1", b.TrainErrors())
	}
	if trainSteps(b) != 0 {
		t.Fatalf("rejected sample advanced the step count to %d", trainSteps(b))
	}
	// A valid call still works and does not disturb the error count.
	if err := b.train(resource.CPU, []float64{0.5, 0.6}, 0.5); err != nil {
		t.Fatal(err)
	}
	if b.TrainErrors() != 1 || trainSteps(b) != 1 {
		t.Fatalf("after valid call: errors %d steps %d", b.TrainErrors(), trainSteps(b))
	}
}

// TestPredictorTrainErrorsSurfaced checks the predictor-level accessor
// reaches the shared brain's count.
func TestPredictorTrainErrorsSurfaced(t *testing.T) {
	b, err := NewCorpBrain(tinyCorpConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	p := NewCorpPredictor(b, resource.Vector{4, 8, 40}, 1)
	_ = b.train(resource.CPU, []float64{0.5}, 0.5) // malformed on purpose
	if p.TrainErrors() != 1 {
		t.Fatalf("predictor TrainErrors = %d, want 1", p.TrainErrors())
	}
	// The healthy Observe path never produces errors.
	for i := 0; i < 50; i++ {
		p.Observe(resource.Vector{2, 4, 20})
	}
	if p.TrainErrors() != 1 {
		t.Fatalf("Observe produced training errors: %d", p.TrainErrors())
	}
}

// TestReplayRingWraparound drives the flat ring past its capacity and
// checks the bookkeeping: length saturates at replayCap, the write cursor
// cycles, and training keeps succeeding with the full step count.
func TestReplayRingWraparound(t *testing.T) {
	cfg := tinyCorpConfig(2)
	b, err := NewCorpBrain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const extra = 10
	in := []float64{0.3, 0.7}
	for i := 0; i < replayCap+extra; i++ {
		in[0] = float64(i%97) / 97
		if err := b.train(resource.CPU, in, 0.5); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if b.kinds[resource.CPU].replayLen != replayCap {
		t.Fatalf("replayLen = %d, want %d", b.kinds[resource.CPU].replayLen, replayCap)
	}
	if b.kinds[resource.CPU].replayPos != extra {
		t.Fatalf("replayPos = %d, want %d", b.kinds[resource.CPU].replayPos, extra)
	}
	// Every call trains 1 new + ReplaySteps replays once the ring has >1
	// entries (the very first call has nothing to replay).
	want := (replayCap+extra)*(1+cfg.ReplaySteps) - cfg.ReplaySteps
	if trainSteps(b) != want {
		t.Fatalf("train steps = %d, want %d", trainSteps(b), want)
	}
}

// TestBrainTrainDeterministic: two brains fed the same sequence must end
// up numerically identical (each kind's replay draws come from its own
// seeded RNG).
func TestBrainTrainDeterministic(t *testing.T) {
	mk := func() *CorpBrain {
		b, err := NewCorpBrain(tinyCorpConfig(5))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := mk(), mk()
	in := []float64{0, 0}
	for i := 0; i < 200; i++ {
		in[0] = float64(i%13) / 13
		in[1] = float64(i%7) / 7
		target := float64(i%5) / 5
		if err := a.train(resource.Memory, in, target); err != nil {
			t.Fatal(err)
		}
		if err := b.train(resource.Memory, in, target); err != nil {
			t.Fatal(err)
		}
	}
	probe := []float64{0.25, 0.75}
	ya, err := a.forward(resource.Memory, probe)
	if err != nil {
		t.Fatal(err)
	}
	yb, err := b.forward(resource.Memory, probe)
	if err != nil {
		t.Fatal(err)
	}
	if ya != yb {
		t.Fatalf("diverged: %v vs %v", ya, yb)
	}
}

// forward evaluates the kind-k network on one sample through Forward, the
// call Predict makes, and copies the scalar out of the network's output
// buffer as Predict does.
func (b *CorpBrain) forward(k resource.Kind, input []float64) (float64, error) {
	out, err := b.kinds[k].net.Forward(input)
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// TestBrainForwardNotRetained is a regression test at the predict layer:
// the scalar is copied out of Forward's reused output buffer, so successive
// calls cannot corrupt earlier results.
func TestBrainForwardNotRetained(t *testing.T) {
	b, err := NewCorpBrain(tinyCorpConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	y1, err := b.forward(resource.CPU, []float64{0.1, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.forward(resource.CPU, []float64{0.9, 0.1}); err != nil {
		t.Fatal(err)
	}
	y1again, err := b.forward(resource.CPU, []float64{0.1, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if y1 != y1again {
		t.Fatalf("forward result changed across interleaved calls: %v vs %v", y1, y1again)
	}
}

// TestObservePathDoesNotAllocate guards the flat-ring rewrite: once the
// history is warm, the whole Observe path (tracker + DNN batch training)
// must stay allocation-free.
func TestObservePathDoesNotAllocate(t *testing.T) {
	brain, err := NewCorpBrain(CorpConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := NewCorpPredictor(brain, resource.Vector{8, 16, 100}, 1)
	v := resource.Vector{4, 8, 50}
	for i := 0; i < 64; i++ {
		p.Observe(v)
	}
	if avg := testing.AllocsPerRun(50, func() { p.Observe(v) }); avg != 0 {
		t.Errorf("Observe allocates %.1f/op after warmup", avg)
	}
}
