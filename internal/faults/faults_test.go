package faults

import (
	"fmt"
	"reflect"
	"testing"
)

// topo builds a 2-PM × 4-VM topology (VMs 0,1 on PM 0; VMs 2,3 on PM 1).
func topo() []int { return []int{0, 0, 1, 1} }

func TestConfigEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero config must be disabled")
	}
	cases := []Config{
		{VMCrashProb: 0.01},
		{PMCrashProb: 0.01},
		{SurgeProb: 0.01},
		{DelayProb: 0.01},
	}
	for i, c := range cases {
		if !c.Enabled() {
			t.Errorf("case %d: %+v should be enabled", i, c)
		}
	}
}

func TestWithDefaults(t *testing.T) {
	d := Config{}.WithDefaults()
	if d.MeanDowntime != 25 || d.SurgeFactor != 1.8 || d.SurgeDuration != 12 ||
		d.DelayMicros != 5000 || d.MaxRetries != 3 || d.RetryBackoff != 2 || d.MaxBackoff != 16 {
		t.Errorf("defaults wrong: %+v", d)
	}
	// Explicit values survive.
	c := Config{MeanDowntime: 5, MaxRetries: 1}.WithDefaults()
	if c.MeanDowntime != 5 || c.MaxRetries != 1 {
		t.Errorf("explicit knobs overwritten: %+v", c)
	}
}

func TestBackoffExponentialAndCapped(t *testing.T) {
	c := Config{}.WithDefaults() // base 2, cap 16
	want := []int{2, 4, 8, 16, 16, 16}
	for i, w := range want {
		if got := c.Backoff(i + 1); got != w {
			t.Errorf("Backoff(%d) = %d, want %d", i+1, got, w)
		}
	}
	if got := c.Backoff(0); got != 2 {
		t.Errorf("Backoff(0) = %d, want clamp to first retry", got)
	}
}

func TestAdvanceDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, VMCrashProb: 0.2, PMCrashProb: 0.05,
		SurgeProb: 0.3, DelayProb: 0.4, MeanDowntime: 4}
	type snap struct {
		Crashed, Recovered []int
		PMCrashes          int
		Surge              []float64
		DelayMicros        float64
	}
	record := func() []snap {
		in := NewInjector(cfg, topo())
		var out []snap
		for s := 0; s < 200; s++ {
			ev := in.Advance(s)
			out = append(out, snap{
				Crashed:     append([]int(nil), ev.Crashed...),
				Recovered:   append([]int(nil), ev.Recovered...),
				PMCrashes:   ev.PMCrashes,
				Surge:       append([]float64(nil), ev.Surge...),
				DelayMicros: ev.DelayMicros,
			})
		}
		return out
	}
	a, b := record(), record()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical seeds produced different fault schedules")
	}
	// Different seed → different schedule (with these rates, over 200
	// slots, a collision would be astronomically unlikely).
	cfg.Seed = 8
	if reflect.DeepEqual(a, record()) {
		t.Fatal("different seeds produced identical fault schedules")
	}
	// The schedule actually contains events of every class.
	var crashes, recoveries, surges, delays int
	for _, s := range a {
		crashes += len(s.Crashed)
		recoveries += len(s.Recovered)
		if s.DelayMicros > 0 {
			delays++
		}
		for _, f := range s.Surge {
			if f != 1 {
				surges++
			}
		}
	}
	if crashes == 0 || recoveries == 0 || surges == 0 || delays == 0 {
		t.Errorf("schedule missing event classes: crashes=%d recoveries=%d surges=%d delays=%d",
			crashes, recoveries, surges, delays)
	}
}

func TestDownAndRecovery(t *testing.T) {
	// Force an immediate crash of everything, then let repairs land.
	cfg := Config{Seed: 1, VMCrashProb: 1, MeanDowntime: 3}
	in := NewInjector(cfg, topo())
	ev := in.Advance(0)
	if len(ev.Crashed) != len(topo()) {
		t.Fatalf("crashed %v, want all VMs", ev.Crashed)
	}
	for v := range topo() {
		if in.downUntil[v] < 0 {
			t.Errorf("VM %d should be down", v)
		}
	}
	// Downtimes are in [1, 2·3−1]; by slot 5 every VM has recovered at
	// least once (and with prob 1 it crashes again the same slot).
	recovered := map[int]bool{}
	for s := 1; s <= 5; s++ {
		for _, v := range in.Advance(s).Recovered {
			recovered[v] = true
		}
	}
	if len(recovered) != len(topo()) {
		t.Errorf("only %d of %d VMs recovered within the downtime bound", len(recovered), len(topo()))
	}
}

func TestPMCrashTakesHostedVMsDown(t *testing.T) {
	cfg := Config{Seed: 1, PMCrashProb: 1, MeanDowntime: 100}
	in := NewInjector(cfg, topo())
	ev := in.Advance(0)
	if ev.PMCrashes != 2 {
		t.Fatalf("PMCrashes = %d, want 2", ev.PMCrashes)
	}
	if len(ev.Crashed) != 4 {
		t.Fatalf("crashed %v, want all hosted VMs", ev.Crashed)
	}
	// Crashed VMs are reported in index order (PM 0's VMs before PM 1's).
	for i := 1; i < len(ev.Crashed); i++ {
		if ev.Crashed[i-1] >= ev.Crashed[i] {
			t.Errorf("crash order not ascending: %v", ev.Crashed)
		}
	}
}

func TestSurgeLifecycle(t *testing.T) {
	cfg := Config{Seed: 3, SurgeProb: 1, SurgeDuration: 2, SurgeFactor: 2}
	in := NewInjector(cfg, topo())
	ev := in.Advance(0)
	for v, f := range ev.Surge {
		// Jitter keeps the factor within ±25 % of SurgeFactor.
		if f < 2*0.75 || f > 2*1.25 {
			t.Errorf("VM %d surge factor %v out of jitter band", v, f)
		}
	}
	first := append([]float64(nil), ev.Surge...)
	// Slot 1: surges still running, factors unchanged.
	ev = in.Advance(1)
	for v, f := range ev.Surge {
		if f != first[v] {
			t.Errorf("VM %d surge factor changed mid-surge: %v → %v", v, first[v], f)
		}
	}
	// Slot 2: old surges expire; with prob 1 fresh ones start (new draws).
	ev = in.Advance(2)
	same := 0
	for v, f := range ev.Surge {
		if f == first[v] {
			same++
		}
	}
	if same == len(first) {
		t.Error("surge factors not redrawn after expiry")
	}
}

func TestCrashClearsSurge(t *testing.T) {
	cfg := Config{Seed: 5, SurgeProb: 1, SurgeDuration: 100, VMCrashProb: 1, MeanDowntime: 50}
	in := NewInjector(cfg, topo())
	ev := in.Advance(0)
	for v, f := range ev.Surge {
		if in.downUntil[v] >= 0 && f != 1 {
			t.Errorf("down VM %d still surging with factor %v", v, f)
		}
	}
}

// TestPMCrashSchedulePinned pins the whole-PM failure path to the schedule
// the injector produced before the PM → VM index list replaced its
// per-PM scans of every VM (recorded from that code): same draws, same
// crash order, on the cluster's round-robin VM → PM layout. Only slots
// with an event are listed.
func TestPMCrashSchedulePinned(t *testing.T) {
	vmToPM := make([]int, 15)
	for v := range vmToPM {
		vmToPM[v] = v % 5
	}
	in := NewInjector(Config{Seed: 42, PMCrashProb: 0.01, VMCrashProb: 0.004, MeanDowntime: 6}, vmToPM)
	want := []string{
		"2 crashed=[5] recovered=[] pm=0",
		"5 crashed=[] recovered=[5] pm=0",
		"6 crashed=[4 9 14] recovered=[] pm=1",
		"12 crashed=[0 5 10] recovered=[] pm=1",
		"15 crashed=[] recovered=[0 4 5 9 10 14] pm=0",
		"26 crashed=[14] recovered=[] pm=0",
		"30 crashed=[1 6 11] recovered=[] pm=1",
		"32 crashed=[] recovered=[14] pm=0",
		"41 crashed=[] recovered=[1 6 11] pm=0",
		"54 crashed=[2] recovered=[] pm=0",
		"55 crashed=[4 9 14] recovered=[] pm=1",
		"58 crashed=[] recovered=[2] pm=0",
		"64 crashed=[3 8 13] recovered=[4 9 14] pm=1",
		"70 crashed=[0 5 10] recovered=[] pm=1",
		"73 crashed=[] recovered=[3 8 13] pm=0",
		"80 crashed=[] recovered=[0 5 10] pm=0",
		"83 crashed=[2 7 12 13] recovered=[] pm=1",
		"89 crashed=[] recovered=[2 7 12] pm=0",
		"93 crashed=[7] recovered=[13] pm=0",
		"96 crashed=[3 4] recovered=[] pm=0",
		"97 crashed=[1 6 11] recovered=[3] pm=1",
		"100 crashed=[] recovered=[7] pm=0",
		"105 crashed=[13] recovered=[1 6 11] pm=0",
		"107 crashed=[] recovered=[4] pm=0",
		"113 crashed=[1] recovered=[13] pm=0",
		"119 crashed=[3 8 13] recovered=[] pm=1",
		"121 crashed=[] recovered=[1] pm=0",
		"124 crashed=[] recovered=[3 8 13] pm=0",
		"127 crashed=[0 5 10] recovered=[] pm=1",
		"130 crashed=[] recovered=[0 5 10] pm=0",
		"133 crashed=[1] recovered=[] pm=0",
		"135 crashed=[5] recovered=[] pm=0",
		"141 crashed=[] recovered=[1] pm=0",
		"142 crashed=[] recovered=[5] pm=0",
		"146 crashed=[13] recovered=[] pm=0",
		"156 crashed=[] recovered=[13] pm=0",
		"165 crashed=[1] recovered=[] pm=0",
		"168 crashed=[5] recovered=[] pm=0",
		"173 crashed=[] recovered=[5] pm=0",
		"174 crashed=[] recovered=[1] pm=0",
		"175 crashed=[4 9 14] recovered=[] pm=1",
		"176 crashed=[0 6] recovered=[] pm=0",
		"183 crashed=[] recovered=[0 6] pm=0",
		"186 crashed=[] recovered=[4 9 14] pm=0",
	}
	var got []string
	for s := 0; s < 200; s++ {
		ev := in.Advance(s)
		if len(ev.Crashed)+len(ev.Recovered)+ev.PMCrashes > 0 {
			got = append(got, fmt.Sprintf("%d crashed=%v recovered=%v pm=%d", s, ev.Crashed, ev.Recovered, ev.PMCrashes))
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PM-crash schedule changed:\n got  %q\n want %q", got, want)
	}
}
