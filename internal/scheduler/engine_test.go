package scheduler

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/resource"
)

// batchTestCluster builds a cluster-profile fleet of the given VM count.
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

// newCorp builds a CORP scheduler with its split observe pass.
func newCorp(t *testing.T, cfg Config, cl *cluster.Cluster) *corpScheduler {
	t.Helper()
	cfg.Scheme = CORP
	s, err := New(cfg, cl)
	if err != nil {
		t.Fatal(err)
	}
	c := s.(*corpScheduler)
	if c.corpFleet == nil {
		t.Fatal("CORP scheduler did not cache corp predictors for the split observe pass")
	}
	return c
}

// driveFleet feeds both schedulers identical telemetry (with a rotating
// down-VM mask to exercise the dirty-skip path) and refreshes both every
// window, checking the forecasts stay exactly equal after each refresh.
func driveFleet(t *testing.T, a, b *corpScheduler, cl *cluster.Cluster, slots int) {
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
			b.Refresh()
			compareLatest(t, a, b, slot)
		}
	}
	// A second Refresh with nothing dirty must be a no-op on both.
	a.Refresh()
	b.Refresh()
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

// TestCorpRefreshWorkerEquivalence pins CORP's observe/Refresh cycle
// bit-identical across worker counts — the multi-worker engine test the
// race gate runs under -race: at Workers 4 the kinds train concurrently
// and each Refresh reads the networks they wrote and runs every VM's HMM
// correction on the fleet's one shared scratch.
func TestCorpRefreshWorkerEquivalence(t *testing.T) {
	cl := batchTestCluster(t, 300)
	serial := newCorp(t, Config{Seed: 7, Workers: 1}, cl)
	wide := newCorp(t, Config{Seed: 7, Workers: 4}, cl)
	driveFleet(t, serial, wide, cl, 40)
}

// TestCorpWindowSteadyStateAllocs pins CORP's whole per-window cycle at
// Workers 1 — six ObserveAll slots (ObserveLocal plus the serial kind
// training pass), the per-VM Refresh (DNN forward, HMM refits, CI
// adjustment, Eq. 21 gate) and DrainOutcomes — as allocation-free once
// every VM's history window is full and the scratch has grown. A clean
// Refresh (no dirty VMs) must be allocation-free from the start.
func TestCorpWindowSteadyStateAllocs(t *testing.T) {
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
		t.Fatalf("Refresh with nothing dirty allocates %v times", clean)
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

// TestCorpWarmupAllocationsDoNotGrowWithFleet pins where a CORP fleet's
// HMM working memory lives: one scratch per fleet, grown once by its first
// refresh windows, not one per VM and kind. A cold 400-VM fleet taken
// through its first 20 windows (six observed slots, a Refresh with HMM
// refits and Viterbi decodes, a drain) must allocate no more than a cold
// 200-VM fleet does, plus a small constant.
func TestCorpWarmupAllocationsDoNotGrowWithFleet(t *testing.T) {
	warmup := func(vms int) uint64 {
		cl := batchTestCluster(t, vms)
		s := newCorp(t, Config{Seed: 3, Workers: 1}, cl)
		unused := make([]resource.Vector, vms)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for slot := 0; slot < 20*s.Window(); slot++ {
			for v := range unused {
				unused[v] = batchTelemetry(cl, v, slot)
			}
			s.ObserveAll(unused, nil)
			if (slot+1)%s.Window() == 0 {
				s.Refresh()
				s.DrainOutcomes()
			}
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	small, large := warmup(200), warmup(400)
	t.Logf("first 20 windows: %d allocations at 200 VMs, %d at 400", small, large)
	if large > small+64 {
		t.Errorf("the first 20 windows allocate %d times for 200 VMs and %d for 400, want at most 64 more", small, large)
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
