package dnn_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dnn"
	"repro/internal/scheduler"
	"repro/internal/sim"
)

// TestSimResultIdenticalAcrossKernelTiers is the end-to-end form of the
// kernel oracle: a small CORP run (10 VMs, smoke horizon — pretraining,
// online TrainBatch, single and batched forwards all included) must
// serialize to the same bytes whichever tier the layer primitives run on.
func TestSimResultIdenticalAcrossKernelTiers(t *testing.T) {
	if !dnn.HasAVX2Tier {
		t.Skip("no AVX2+FMA: only the plain-Go tier exists on this machine")
	}
	run := func(avx2 bool) []byte {
		dnn.SetTier(t, avx2)
		res, err := sim.Run(sim.Config{
			Profile: cluster.ProfileCluster, NumPMs: 5, NumVMs: 10, NumJobs: 30,
			Warmup: 24, ArrivalSpan: 12, Drain: 24,
			Seed:      7,
			Scheduler: scheduler.Config{Scheme: scheduler.CORP, Seed: 7},
			Clock:     &sim.VirtualClock{StepMicros: 50},
			Workers:   1,
		})
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	simd, plain := run(true), run(false)
	if !bytes.Equal(simd, plain) {
		t.Fatalf("sim.Result differs between kernel tiers:\navx2:    %s\ngeneric: %s", simd, plain)
	}
}
