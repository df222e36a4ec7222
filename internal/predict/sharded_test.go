package predict

import (
	"math"
	"testing"

	"repro/internal/resource"
)

// TestShardedObserveEquivalence pins the scheduler's phase-split contract
// at the predict layer: feeding a fleet through ObserveLocal (in any VM
// order) followed by per-kind FlushShared in a fixed VM order must leave
// the shared brain and every predictor bit-identical to plain per-VM
// Observe calls.
func TestShardedObserveEquivalence(t *testing.T) {
	const nVMs = 6
	const slots = 80
	caps := resource.Vector{8, 16, 100}
	mkFleet := func() (*CorpBrain, []*CorpPredictor) {
		brain, err := NewCorpBrain(CorpConfig{Seed: 42, ReplaySteps: 2})
		if err != nil {
			t.Fatal(err)
		}
		ps := make([]*CorpPredictor, nVMs)
		for i := range ps {
			ps[i] = NewCorpPredictor(brain, caps, int64(100+i))
		}
		return brain, ps
	}
	sample := func(vm, slot int) resource.Vector {
		f := 0.5 + 0.4*math.Sin(float64(slot)/5+float64(vm))
		return resource.Vector{caps[0] * f, caps[1] * f * 0.8, caps[2] * f * 0.6}
	}

	brainA, fleetA := mkFleet()
	brainB, fleetB := mkFleet()
	for s := 0; s < slots; s++ {
		for i, p := range fleetA {
			p.Observe(sample(i, s))
		}
		// Split path: local phase in reverse VM order (order must not
		// matter), shared phase per kind in forward VM order (must).
		for i := len(fleetB) - 1; i >= 0; i-- {
			fleetB[i].ObserveLocal(sample(i, s))
		}
		for _, k := range resource.Kinds() {
			for _, p := range fleetB {
				p.FlushShared(k)
			}
		}
	}
	if trainSteps(brainA) != trainSteps(brainB) {
		t.Fatalf("train steps diverged: %d vs %d", trainSteps(brainA), trainSteps(brainB))
	}
	for i := range fleetA {
		pa, pb := fleetA[i].Predict(), fleetB[i].Predict()
		if pa != pb {
			t.Fatalf("VM %d prediction diverged: %+v vs %+v", i, pa, pb)
		}
	}
}
