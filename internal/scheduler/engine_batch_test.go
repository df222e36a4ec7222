package scheduler

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
	if c.corpFleet == nil {
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

// TestBatchedRefreshSteadyStateAllocs pins CORP's whole per-window cycle
// at Workers 1 — six ObserveAll slots (ObserveLocal plus the serial kind
// training pass), the batched Refresh (staging, gather, batched forward,
// HMM refits, scatter) and DrainOutcomes — as allocation-free once every
// VM's history window is full and the scratch has grown. A clean Refresh
// (no dirty VMs) must be allocation-free from the start.
func TestBatchedRefreshSteadyStateAllocs(t *testing.T) {
	cl := batchTestCluster(t, 64)
	s := newCorp(t, Config{Seed: 3, Workers: 1}, cl)
	unused := make([]resource.Vector, len(cl.VMs))
	slot := 0
	observe := func() {
		for v := range unused {
			unused[v] = batchTelemetry(cl, v, slot)
		}
		s.ObserveAll(unused, nil)
		slot++
	}
	cycle := func() {
		for j := 0; j < s.Window(); j++ {
			observe()
		}
		s.Refresh()
		s.DrainOutcomes()
	}
	s.Refresh()
	if clean := testing.AllocsPerRun(10, s.Refresh); clean > 0 {
		t.Fatalf("batched Refresh with nothing dirty allocates %v times", clean)
	}
	// 50 windows (300 slots) fill the 120-slot history, the HMM
	// observation sequences it symbolizes and the 40-sample error windows
	// (which start filling only after the first few matured forecasts).
	for i := 0; i < 50; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(20, observe); n != 0 {
		t.Errorf("CORP ObserveAll allocates %v times per slot at Workers 1, want 0", n)
	}
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Errorf("steady-state CORP observe/Refresh cycle allocates %v times, want 0", n)
	}
}

// TestObserveAllDoesNotAllocate pins the independent-predictor schemes'
// observe pass: at Workers 1 it is a plain loop, and a warm fleet's
// predictors observe without touching the heap.
func TestObserveAllDoesNotAllocate(t *testing.T) {
	cl := batchTestCluster(t, 64)
	for _, sc := range []Scheme{RCCR, CloudScale, DRA} {
		s, err := New(Config{Scheme: sc, Seed: 3, Workers: 1}, cl)
		if err != nil {
			t.Fatal(err)
		}
		unused := make([]resource.Vector, len(cl.VMs))
		slot := 0
		observe := func() {
			for v := range unused {
				unused[v] = batchTelemetry(cl, v, slot)
			}
			s.ObserveAll(unused, nil)
			slot++
		}
		for i := 0; i < 200; i++ {
			observe()
		}
		if n := testing.AllocsPerRun(20, observe); n != 0 {
			t.Errorf("%v ObserveAll allocates %v times per slot at Workers 1, want 0", sc, n)
		}
	}
}

// kindBarrier is a kindTrainer whose every trainKind call waits until all
// resource kinds are in flight at once, or until a timeout passes.
type kindBarrier struct {
	arrived  sync.WaitGroup
	timeouts atomic.Int32
	calls    [resource.NumKinds]atomic.Int32
}

func (b *kindBarrier) trainKind(k resource.Kind) {
	b.calls[k].Add(1)
	b.arrived.Done()
	all := make(chan struct{})
	go func() {
		b.arrived.Wait()
		close(all)
	}()
	select {
	case <-all:
	case <-time.After(2 * time.Second):
		b.timeouts.Add(1)
	}
}

// TestTrainKindsRunsKindsConcurrently pins the training fan-out's width:
// at Workers 2 all three kinds must be in flight at the same time (a
// fan-out that ran them one after another, or two at a time, would leave
// the barrier waiting), and each kind trains exactly once.
func TestTrainKindsRunsKindsConcurrently(t *testing.T) {
	b := &kindBarrier{}
	b.arrived.Add(resource.NumKinds)
	trainKinds(2, b)
	if n := b.timeouts.Load(); n != 0 {
		t.Fatalf("%d kinds waited out the barrier: the kinds did not train concurrently", n)
	}
	for k := range b.calls {
		if n := b.calls[k].Load(); n != 1 {
			t.Errorf("kind %d trained %d times, want 1", k, n)
		}
	}
}

// kindRecorder is a kindTrainer that records the order kinds train in.
type kindRecorder []resource.Kind

func (r *kindRecorder) trainKind(k resource.Kind) { *r = append(*r, k) }

// TestTrainKindsSerialAtOneWorker pins Workers <= 1 as the kinds trained
// in order on the calling goroutine.
func TestTrainKindsSerialAtOneWorker(t *testing.T) {
	for _, w := range []int{0, 1} {
		var r kindRecorder
		trainKinds(w, &r)
		if !slices.Equal(r, []resource.Kind{resource.CPU, resource.Memory, resource.Storage}) {
			t.Errorf("workers=%d: kinds trained in order %v", w, r)
		}
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
