package scheduler

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/predict"
	"repro/internal/resource"
)

// batchTestCluster is sized past refreshBatchRows so the batched Refresh
// exercises a full chunk plus a ragged remainder.
func batchTestCluster(t *testing.T, vms int) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cluster.Config{Profile: cluster.ProfileCluster, NumPMs: (vms + 3) / 4, NumVMs: vms})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// batchTelemetry is a deterministic per-VM, per-slot unused vector with
// enough variation that the DNN path, symbolizer, and error statistics
// all stay live.
func batchTelemetry(cl *cluster.Cluster, v, slot int) resource.Vector {
	c := cl.VMs[v].Capacity
	f := 0.35 + 0.25*math.Sin(float64(slot+v)/5) + 0.05*float64((slot+3*v)%7)/7
	return resource.New(c[0]*f, c[1]*f*0.9, c[2]*f*0.7)
}

// perVMRefresh is the reference Refresh the batched pipeline is pinned
// against: one serial Predict per dirty VM, in VM order.
func perVMRefresh(s *corpScheduler) {
	for i, p := range s.preds {
		if s.dirty[i] {
			s.dirty[i] = false
			s.latest[i] = p.Predict()
		}
	}
}

// newCorp builds a CORP scheduler; every one refreshes through the batched
// pipeline.
func newCorp(t *testing.T, cfg Config, cl *cluster.Cluster) *corpScheduler {
	t.Helper()
	cfg.Scheme = CORP
	s, err := New(cfg, cl)
	if err != nil {
		t.Fatal(err)
	}
	c := s.(*corpScheduler)
	if c.corpPreds == nil {
		t.Fatal("CORP scheduler did not cache corp predictors for the batched refresh")
	}
	return c
}

// driveFleet feeds both schedulers identical telemetry (with a rotating
// down-VM mask to exercise the dirty-skip path) and refreshes every
// window — a through its own batched Refresh, b through refreshB —
// checking the forecasts stay exactly equal after each refresh.
func driveFleet(t *testing.T, a, b *corpScheduler, refreshB func(), cl *cluster.Cluster, slots int) {
	t.Helper()
	unused := make([]resource.Vector, len(cl.VMs))
	skip := make([]bool, len(cl.VMs))
	for slot := 0; slot < slots; slot++ {
		for v := range unused {
			unused[v] = batchTelemetry(cl, v, slot)
			// Rotate a sparse down mask so some VMs keep stale forecasts.
			skip[v] = slot > 20 && (v+slot)%17 == 0
		}
		a.ObserveAll(unused, skip)
		b.ObserveAll(unused, skip)
		if slot%a.Window() == 0 {
			a.Refresh()
			refreshB()
			compareLatest(t, a, b, slot)
		}
	}
	// A second Refresh with nothing dirty must be a no-op on both paths.
	a.Refresh()
	refreshB()
	compareLatest(t, a, b, slots)
}

func compareLatest(t *testing.T, a, b *corpScheduler, slot int) {
	t.Helper()
	la := a.latest
	lb := b.latest
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("slot %d VM %d: forecasts diverge: %+v vs %+v", slot, i, la[i], lb[i])
		}
	}
	oa := a.DrainOutcomes()
	ob := b.DrainOutcomes()
	if len(oa) != len(ob) {
		t.Fatalf("slot %d: outcome counts diverge: %d vs %d", slot, len(oa), len(ob))
	}
	for i := range oa {
		if oa[i] != ob[i] {
			t.Fatalf("slot %d outcome %d: %+v vs %+v", slot, i, oa[i], ob[i])
		}
	}
}

// TestBatchedRefreshMatchesPerVM pins the batched gather → ForwardBatch →
// scatter Refresh bit-identical to the reference per-VM Predict loop,
// across a fleet larger than one batch chunk, with down-VM skips and
// matured prediction outcomes compared at every refresh.
func TestBatchedRefreshMatchesPerVM(t *testing.T) {
	cl := batchTestCluster(t, 300)
	batched := newCorp(t, Config{Seed: 7, Workers: 1}, cl)
	pervm := newCorp(t, Config{Seed: 7, Workers: 1}, cl)
	driveFleet(t, batched, pervm, func() { perVMRefresh(pervm) }, cl, 40)
}

// TestBatchedRefreshWorkerEquivalence pins the batched Refresh
// bit-identical across worker counts — the multi-worker engine test the
// race gate runs under -race.
func TestBatchedRefreshWorkerEquivalence(t *testing.T) {
	cl := batchTestCluster(t, 300)
	serial := newCorp(t, Config{Seed: 7, Workers: 1}, cl)
	wide := newCorp(t, Config{Seed: 7, Workers: 4}, cl)
	driveFleet(t, serial, wide, wide.Refresh, cl, 40)
}

// TestBatchedRefreshSteadyStateAllocs pins the batched Refresh machinery
// (staging, gather, scatter) as adding no steady-state allocations over
// the per-VM reference loop: the measured cycle includes the predictors'
// own pre-existing costs (training, HMM refits), so the batched and per-VM
// totals are compared rather than pinned at zero. A clean Refresh (no
// dirty VMs) must be exactly allocation-free. The pure prediction path
// is pinned at zero allocs in internal/predict and internal/dnn.
func TestBatchedRefreshSteadyStateAllocs(t *testing.T) {
	measure := func(perVM bool) float64 {
		cl := batchTestCluster(t, 64)
		s := newCorp(t, Config{Seed: 3, Workers: 1}, cl)
		refresh := s.Refresh
		if perVM {
			refresh = func() { perVMRefresh(s) }
		}
		unused := make([]resource.Vector, len(cl.VMs))
		slot := 0
		cycle := func() {
			for j := 0; j < 6; j++ {
				for v := range unused {
					unused[v] = batchTelemetry(cl, v, slot)
				}
				s.ObserveAll(unused, nil)
				slot++
			}
			refresh()
			s.DrainOutcomes()
		}
		for i := 0; i < 10; i++ {
			cycle()
		}
		// The batched path bails before building any closure when nothing
		// is dirty.
		if clean := testing.AllocsPerRun(10, s.Refresh); clean > 0 {
			t.Fatalf("batched Refresh with nothing dirty allocates %v times", clean)
		}
		return testing.AllocsPerRun(30, cycle)
	}
	batched, pervm := measure(false), measure(true)
	if batched > pervm+8 {
		t.Fatalf("batched refresh cycle allocates %v/op vs per-VM %v/op: staging machinery is not steady-state alloc-free", batched, pervm)
	}
}

// TestCorpPredictorSerialMatchesSplit drives one predictor through the
// serial Predict and another through the explicit Prepare/forward/Finish
// split the engine uses, pinning the outputs identical.
func TestCorpPredictorSerialMatchesSplit(t *testing.T) {
	mkPred := func() (*predict.CorpPredictor, *predict.CorpBrain) {
		brain, err := predict.NewCorpBrain(predict.CorpConfig{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return predict.NewCorpPredictor(brain, resource.New(8, 16, 100), 5), brain
	}
	serial, _ := mkPred()
	split, splitBrain := mkPred()
	rows := [resource.NumKinds][]float64{
		make([]float64, 12), make([]float64, 12), make([]float64, 12),
	}
	for slot := 0; slot < 60; slot++ {
		f := 0.4 + 0.3*math.Sin(float64(slot)/4)
		v := resource.New(8*f, 16*f*0.8, 100*f*0.6)
		serial.Observe(v)
		split.Observe(v)
		if slot%6 != 0 {
			continue
		}
		want := serial.Predict()
		need := split.PredictPrepare(&rows)
		var outs [resource.NumKinds]float64
		for _, k := range resource.Kinds() {
			if !need[k] {
				continue
			}
			batch, err := splitBrain.ForwardBatchKind(k, rows[k])
			if err != nil {
				t.Fatal(err)
			}
			outs[k] = batch[0]
		}
		got := split.PredictFinish(&outs)
		if got != want {
			t.Fatalf("slot %d: split prediction %+v != serial %+v", slot, got, want)
		}
	}
}
