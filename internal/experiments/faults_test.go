package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// TestDeriveSeedNoCollisions is the regression test for the additive
// replication seeds: under the old scheme (Seed, Seed+101, Seed+202) any
// two base seeds 101 apart silently reran the same workloads. The
// splitmix64 derivation must keep every (base, stream) pair distinct.
func TestDeriveSeedNoCollisions(t *testing.T) {
	bases := []int64{1, 102, 203, 304, 405} // 101 apart: the old failure mode
	const streams = 4
	seen := map[int64][2]int64{}
	for _, b := range bases {
		for s := 0; s < streams; s++ {
			d := deriveSeed(b, s)
			if d < 0 {
				t.Errorf("deriveSeed(%d, %d) = %d negative", b, s, d)
			}
			if prev, ok := seen[d]; ok {
				t.Errorf("collision: (%d,%d) and (%d,%d) both derive %d",
					prev[0], prev[1], b, s, d)
			}
			seen[d] = [2]int64{b, int64(s)}
		}
	}
	// Derivation is deterministic.
	if deriveSeed(7, 1) != deriveSeed(7, 1) {
		t.Error("deriveSeed not deterministic")
	}
}

func TestSeedsUseDerivation(t *testing.T) {
	a := Options{Seed: 1}.seeds(0)
	b := Options{Seed: 102}.seeds(0)
	for _, x := range a {
		for _, y := range b {
			if x == y {
				t.Errorf("bases 1 and 102 share replication seed %d", x)
			}
		}
	}
	// Same base twice → identical streams (experiments stay reproducible).
	if !reflect.DeepEqual(a, Options{Seed: 1}.seeds(0)) {
		t.Error("seeds(0) not deterministic")
	}
}

func TestFaultProfileShape(t *testing.T) {
	p := faultProfile(0.01, 5)
	if p.VMCrashProb != 0.01 || p.PMCrashProb != 0.001 ||
		p.SurgeProb != 0.02 || p.DelayProb != 0.05 || p.Seed != 5 {
		t.Errorf("profile = %+v", p)
	}
	if !p.Enabled() {
		t.Error("nonzero rate must enable injection")
	}
	if faultProfile(0, 5).Enabled() {
		t.Error("rate 0 must disable injection entirely")
	}
	if n := len(failureRates(true)); n != 2 {
		t.Errorf("quick sweep has %d points", n)
	}
	if n := len(failureRates(false)); n != 4 {
		t.Errorf("full sweep has %d points", n)
	}
	if failureRates(true)[0] != 0 || failureRates(false)[0] != 0 {
		t.Error("sweeps must include the fault-free baseline point")
	}
}

// TestQuickExtensionFaults runs the ext-faults harness in quick mode and
// checks shape, the fault-free baseline, and bit-for-bit determinism
// (the figure injects a virtual clock, so even overhead-derived state is
// reproducible).
func TestQuickExtensionFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	o := Options{Seed: 1, Quick: true}
	f, err := ExtensionFaultTolerance(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f.String())
	if f.ID != "ext-faults" {
		t.Errorf("ID = %q", f.ID)
	}
	rates := failureRates(true)
	for _, sc := range schemeOrder {
		for _, kind := range []string{"/slo", "/util"} {
			s := f.SeriesByLabel(sc.String() + kind)
			if s == nil {
				t.Fatalf("series %s%s missing", sc, kind)
			}
			if len(s.X) != len(rates) {
				t.Errorf("%s has %d points, want %d", s.Label, len(s.X), len(rates))
			}
			for i, y := range s.Y {
				if y < 0 || y > 1.000001 {
					t.Errorf("%s point %d = %v outside [0,1]", s.Label, i, y)
				}
			}
		}
	}
	// The rate-0 point is the fault-free baseline: its pooled recovery
	// note must report zero failure activity.
	if len(f.Notes) != len(rates) {
		t.Fatalf("%d notes for %d rates", len(f.Notes), len(rates))
	}
	if !strings.HasPrefix(f.Notes[0], "rate=0: 0 VM crashes, 0 evictions") {
		t.Errorf("rate-0 note reports fault activity: %s", f.Notes[0])
	}
	// Bit-for-bit determinism: a second run reproduces every series and
	// note exactly.
	g, err := ExtensionFaultTolerance(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Series, g.Series) {
		t.Error("ext-faults series not bit-for-bit reproducible")
	}
	if !reflect.DeepEqual(f.Notes, g.Notes) {
		t.Error("ext-faults notes not bit-for-bit reproducible")
	}
}
