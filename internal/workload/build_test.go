package workload

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/job"
	"repro/internal/resource"
	"repro/internal/trace"
	"repro/internal/workpool"
)

// sizedParams is a snapshot of numVMs residents over horizon slots plus
// numJobs short jobs of the given mean duration and numLong long jobs.
func sizedParams(numVMs, horizon, numJobs, meanDuration, numLong int) Params {
	caps := make([]resource.Vector, numVMs)
	for i := range caps {
		caps[i] = resource.Vector{4, 16, 180}
	}
	return Params{
		VMCaps:    caps,
		Residents: trace.ResidentConfig{Seed: 11, Horizon: horizon},
		Jobs: trace.Config{
			Seed: 12, NumJobs: numJobs, ArrivalSpan: 12, MeanDuration: meanDuration,
			VMCapacity: resource.Vector{0.5, 2, 8},
		},
		Long: trace.LongJobConfig{Seed: 13, NumJobs: numLong, ArrivalSpan: 12, VMCapacity: resource.Vector{0.5, 2, 8}},
	}
}

// vecDiff names the first kind where a and b differ bitwise, or "".
func vecDiff(a, b resource.Vector) string {
	for k := range resource.NumKinds {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return fmt.Sprintf("kind %d: %v != %v", k, a[k], b[k])
		}
	}
	return ""
}

// jobsDiff describes the first bitwise difference between two populations.
func jobsDiff(what string, a, b []*job.Job) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%s: %d jobs != %d", what, len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.ID != y.ID || x.Class != y.Class || x.Arrival != y.Arrival || x.Duration != y.Duration ||
			math.Float64bits(x.SLOFactor) != math.Float64bits(y.SLOFactor) || len(x.Usage) != len(y.Usage) {
			return fmt.Sprintf("%s %d: spec %+v != %+v", what, i, *x, *y)
		}
		if d := vecDiff(x.Request, y.Request); d != "" {
			return fmt.Sprintf("%s %d request: %s", what, i, d)
		}
		for k := range x.Usage {
			if d := vecDiff(x.Usage[k], y.Usage[k]); d != "" {
				return fmt.Sprintf("%s %d usage slot %d: %s", what, i, k, d)
			}
		}
	}
	return ""
}

// tablesDiff describes the first bitwise difference between two table sets.
func tablesDiff(a, b *ResidentTables) string {
	if (a == nil) != (b == nil) {
		return fmt.Sprintf("tables nil %v != nil %v", a == nil, b == nil)
	}
	if a == nil {
		return ""
	}
	if a.NumVMs != b.NumVMs || a.Period != b.Period {
		return fmt.Sprintf("tables shape %dx%d != %dx%d", a.NumVMs, a.Period, b.NumVMs, b.Period)
	}
	for p := range a.Period {
		for v := range a.NumVMs {
			if d := vecDiff(a.DemandRow(p)[v], b.DemandRow(p)[v]); d != "" {
				return fmt.Sprintf("demand phase %d VM %d: %s", p, v, d)
			}
			if d := vecDiff(a.UnusedRow(p)[v], b.UnusedRow(p)[v]); d != "" {
				return fmt.Sprintf("unused phase %d VM %d: %s", p, v, d)
			}
		}
	}
	return ""
}

// snapshotDiff describes the first bitwise difference between two
// snapshots' populations and tables, or returns "".
func snapshotDiff(a, b *Snapshot) string {
	for _, d := range []string{
		jobsDiff("resident", a.Residents(), b.Residents()),
		jobsDiff("short job", a.ShortJobs(), b.ShortJobs()),
		jobsDiff("long job", a.LongJobs(), b.LongJobs()),
		tablesDiff(a.Tables(), b.Tables()),
	} {
		if d != "" {
			return d
		}
	}
	if a.Bytes() != b.Bytes() {
		return fmt.Sprintf("Bytes %d != %d", a.Bytes(), b.Bytes())
	}
	return ""
}

// directSnapshot is the reference TestBuildIdenticalAtAnyGrant compares
// against: each generator called directly, in order, and the tables built
// by the serial phase loop.
func directSnapshot(t *testing.T, p Params) *Snapshot {
	t.Helper()
	s := &Snapshot{params: p}
	var err error
	if s.residents, err = trace.GenerateResidents(p.Residents, p.VMCaps, ResidentFirstID); err != nil {
		t.Fatal(err)
	}
	if s.shortJobs, err = trace.GenerateShortJobs(p.Jobs); err != nil {
		t.Fatal(err)
	}
	if p.Long.NumJobs > 0 {
		if s.longJobs, err = trace.GenerateLongJobs(p.Long, LongFirstID); err != nil {
			t.Fatal(err)
		}
	}
	if s.tables, err = buildResidentTables(s.residents, false); err != nil {
		t.Fatal(err)
	}
	s.bytes = jobsBytes(s.residents) + jobsBytes(s.shortJobs) + jobsBytes(s.longJobs) + s.tables.Bytes()
	return s
}

// grants are the three ways TestBuildIdenticalAtAnyGrant builds a
// snapshot: with every budget slot already claimed (inline), with the
// budget free (fan-out when above the floor), and at GOMAXPROCS=1.
var grants = []struct {
	name  string
	build func(func() *Snapshot) *Snapshot
}{
	{"exhausted", func(f func() *Snapshot) *Snapshot {
		held := workpool.ClaimUpTo(workpool.Limit())
		defer workpool.Release(held)
		return f()
	}},
	{"free", func(f func() *Snapshot) *Snapshot { return f() }},
	{"gomaxprocs1", func(f func() *Snapshot) *Snapshot {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		return f()
	}},
}

// TestBuildIdenticalAtAnyGrant pins the concurrent build: the generators
// and the resident tables produce the bits the serial generators and phase
// loop produce whether the budget grants no slot, every slot, or there is
// only one, above the size floor and below it, and a population without
// one period is rejected at any grant with the budget whole again.
func TestBuildIdenticalAtAnyGrant(t *testing.T) {
	if n := workpool.InUse(); n != 0 {
		t.Fatalf("%d budget slots already claimed", n)
	}
	populations := []struct {
		name  string
		p     Params
		above bool
	}{
		// The 500-PM scale-smoke shape: 2000 VMs over 48 slots, 12000
		// short jobs of mean 30 slots, 200 long jobs.
		{"scale-smoke", sizedParams(2000, 48, 12_000, 30, 200), true},
		// Table II: 200 VMs over the default 300-slot run, 300 short jobs.
		{"table-ii", sizedParams(200, 300, 300, 0, 0), false},
	}
	for _, pop := range populations {
		t.Run(pop.name, func(t *testing.T) {
			if above := pop.p.vectors() >= buildMinVectors; above != pop.above {
				t.Fatalf("%d vectors: above floor %d = %v, want %v", pop.p.vectors(), buildMinVectors, above, pop.above)
			}
			ref := directSnapshot(t, pop.p)
			for _, g := range grants {
				snap := g.build(func() *Snapshot {
					s, err := Build(pop.p)
					if err != nil {
						t.Fatal(err)
					}
					return s
				})
				if workpool.InUse() != 0 {
					t.Fatalf("%s: %d slots still claimed after the build", g.name, workpool.InUse())
				}
				if d := snapshotDiff(ref, snap); d != "" {
					t.Fatalf("%s differs from the serial generators and tables: %s", g.name, d)
				}
			}
		})
	}
	t.Run("non-uniform-period", func(t *testing.T) {
		mixed := make([]*job.Job, 8)
		for i := range mixed {
			usage := make([]resource.Vector, 6+i%2)
			for k := range usage {
				usage[k] = resource.Vector{1, 2, 3}
			}
			mixed[i] = &job.Job{ID: job.ID(i), Request: resource.Vector{2, 4, 6}, Usage: usage, Duration: len(usage)}
		}
		for _, g := range grants {
			var err error
			g.build(func() *Snapshot {
				_, err = buildResidentTables(mixed, true)
				return nil
			})
			if err == nil {
				t.Fatalf("%s: mixed-period population tabulated", g.name)
			}
			if n := workpool.InUse(); n != 0 {
				t.Fatalf("%s: %d slots still claimed after the rejected tables", g.name, n)
			}
		}
	})
}

// TestBuildTaskPanicReachesCaller makes the long-job generator task panic
// on the fan-out path (a MinDuration so large that the generator's
// duration range overflows and rand.Intn panics): the panic must surface
// on the goroutine that called Build, and the budget must be whole again.
func TestBuildTaskPanicReachesCaller(t *testing.T) {
	p := sizedParams(2000, 48, 12_000, 30, 1)
	p.Long.MinDuration = 1 << 62
	if p.vectors() < buildMinVectors {
		t.Fatalf("%d vectors: below the floor, the fan-out path would not run", p.vectors())
	}
	for _, g := range grants {
		var got any
		g.build(func() *Snapshot {
			defer func() { got = recover() }()
			s, _ := Build(p)
			return s
		})
		if got == nil {
			t.Fatalf("%s: Build returned instead of panicking", g.name)
		}
		if !strings.Contains(fmt.Sprint(got), "Intn") {
			t.Fatalf("%s: recovered %v, want the generator's rand.Intn panic", g.name, got)
		}
		if n := workpool.InUse(); n != 0 {
			t.Fatalf("%s: %d budget slots still claimed after a panicking build", g.name, n)
		}
	}
}
