package job

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/resource"
)

func spec() *Job {
	return &Job{
		ID:       1,
		Class:    CPUIntensive,
		Arrival:  5,
		Duration: 4,
		Request:  resource.New(8, 2, 10),
		Usage: []resource.Vector{
			resource.New(4, 1, 2),
			resource.New(6, 1, 2),
			resource.New(8, 2, 2),
			resource.New(2, 1, 2),
		},
		SLOFactor: 1.5,
	}
}

func TestClassString(t *testing.T) {
	cases := map[Class]string{
		Balanced: "balanced", CPUIntensive: "cpu-intensive",
		MemIntensive: "mem-intensive", StorageIntensive: "storage-intensive",
		Class(9): "Class(9)",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(c), got, want)
		}
	}
}

func TestValidateOK(t *testing.T) {
	if err := spec().Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Job)
	}{
		{"zero duration", func(j *Job) { j.Duration = 0 }},
		{"empty usage", func(j *Job) { j.Usage = nil }},
		{"negative arrival", func(j *Job) { j.Arrival = -1 }},
		{"zero SLO factor", func(j *Job) { j.SLOFactor = 0 }},
		{"negative usage", func(j *Job) { j.Usage[1] = resource.New(-1, 0, 0) }},
		{"negative request", func(j *Job) { j.Request = resource.New(-1, 0, 0) }},
		{"NaN usage", func(j *Job) { j.Usage[1] = resource.New(math.NaN(), 0, 0) }},
		{"infinite request", func(j *Job) { j.Request = resource.New(0, math.Inf(1), 0) }},
		{"NaN SLO factor", func(j *Job) { j.SLOFactor = math.NaN() }},
		{"infinite SLO factor", func(j *Job) { j.SLOFactor = math.Inf(1) }},
	}
	for _, m := range mutations {
		j := spec()
		m.mut(j)
		if err := j.Validate(); err == nil {
			t.Errorf("%s: expected validation error", m.name)
		}
	}
}

func TestDemandAtWrapsAndClamps(t *testing.T) {
	j := spec()
	if got := j.DemandAt(0); got != resource.New(4, 1, 2) {
		t.Errorf("DemandAt(0) = %v", got)
	}
	// Wraps: slot 4 == slot 0.
	if j.DemandAt(4) != j.DemandAt(0) {
		t.Error("DemandAt should wrap past the series")
	}
	// Negative clamps to 0.
	if j.DemandAt(-3) != j.DemandAt(0) {
		t.Error("negative index should clamp to 0")
	}
	empty := &Job{}
	if !empty.DemandAt(0).IsZero() {
		t.Error("empty usage should demand zero")
	}
}

func TestPeakAndMeanDemand(t *testing.T) {
	j := spec()
	if got := j.PeakDemand(); got != resource.New(8, 2, 2) {
		t.Errorf("PeakDemand = %v", got)
	}
	mean := j.MeanDemand()
	if math.Abs(mean.At(resource.CPU)-5) > 1e-12 {
		t.Errorf("mean CPU = %v, want 5", mean.At(resource.CPU))
	}
	if !(&Job{}).MeanDemand().IsZero() {
		t.Error("empty mean should be zero")
	}
}

func TestUnusedAt(t *testing.T) {
	j := spec()
	// Slot 0: request <8,2,10> − usage <4,1,2> = <4,1,8>.
	if got := j.UnusedAt(0); got != resource.New(4, 1, 8) {
		t.Errorf("UnusedAt(0) = %v", got)
	}
	// Usage above request clamps to zero, never negative.
	j.Request = resource.New(3, 0, 0)
	u := j.UnusedAt(2) // usage <8,2,2>
	if !u.NonNegative() {
		t.Errorf("UnusedAt must be non-negative, got %v", u)
	}
}

func TestSLOThreshold(t *testing.T) {
	j := spec() // duration 4, factor 1.5 → 6
	if got := j.SLOThreshold(); got != 6 {
		t.Errorf("SLOThreshold = %d, want 6", got)
	}
	// Factor below 1 is floored at the duration itself.
	j.SLOFactor = 0.5
	if got := j.SLOThreshold(); got != 4 {
		t.Errorf("SLOThreshold floor = %d, want 4", got)
	}
	// Fractional products round up.
	j.SLOFactor = 1.1 // 4.4 → 5
	if got := j.SLOThreshold(); got != 5 {
		t.Errorf("SLOThreshold ceil = %d, want 5", got)
	}
}

func TestDominant(t *testing.T) {
	j := spec()
	ref := resource.New(16, 4, 100)
	// Peak <8,2,2>: CPU share 0.5, MEM share 0.5, STO 0.02 → CPU wins ties
	// by order; verify it's one of the two leaders.
	d := j.Dominant(ref)
	if d != resource.CPU && d != resource.Memory {
		t.Errorf("Dominant = %v", d)
	}
}

func TestRuntimeLifecycle(t *testing.T) {
	j := spec()
	r := RuntimeAt(j, j.Arrival)
	if r.Started != -1 || r.Done() {
		t.Error("fresh runtime should be neither started nor done")
	}
	if r.VM != -1 {
		t.Error("fresh runtime should be unplaced")
	}
	if r.ResponseTime() != -1 {
		t.Error("unfinished response time should be -1")
	}
	r.Started = 5
	if r.Done() {
		t.Error("started runtime should not be done")
	}
	r.Finished = 10
	if !r.Done() {
		t.Error("finished runtime should be done")
	}
	// Response time = 10 − 5 + 1 = 6 = threshold → not violated.
	if r.ResponseTime() != 6 {
		t.Errorf("ResponseTime = %d, want 6", r.ResponseTime())
	}
	if r.SLOViolated() {
		t.Error("response time equal to threshold is not a violation")
	}
	r.Finished = 11 // response 7 > 6 → violation
	if !r.SLOViolated() {
		t.Error("late finish should violate SLO")
	}
}

func TestAdvanceFullAllocation(t *testing.T) {
	j := spec()
	r := RuntimeAt(j, j.Arrival)
	r.Started = j.Arrival
	for k := 0; k < j.Duration; k++ {
		rate := r.Advance(j.DemandAt(k))
		if rate != 1 {
			t.Fatalf("slot %d: rate = %v, want 1", k, rate)
		}
	}
	if r.Progress < float64(j.Duration)-1e-9 {
		t.Errorf("Progress = %v, want %d", r.Progress, j.Duration)
	}
}

func TestAdvanceStarved(t *testing.T) {
	j := spec()
	r := RuntimeAt(j, j.Arrival)
	// Grant half the CPU demanded in slot 0 (<4,1,2> demanded).
	rate := r.Advance(resource.New(2, 1, 2))
	if math.Abs(rate-0.5) > 1e-12 {
		t.Errorf("starved rate = %v, want 0.5", rate)
	}
	// Grant nothing: no progress, but the slot still elapses.
	rate = r.Advance(resource.Vector{})
	if rate != 0 {
		t.Errorf("zero-grant rate = %v, want 0", rate)
	}
	if r.Slots != 2 {
		t.Errorf("Slots = %d, want 2", r.Slots)
	}
}

func TestAdvanceZeroDemandKindIgnored(t *testing.T) {
	j := &Job{
		ID: 2, Duration: 1, SLOFactor: 1,
		Usage: []resource.Vector{resource.New(4, 0, 0)},
	}
	r := RuntimeAt(j, j.Arrival)
	// MEM/storage demand is zero; granting zero of them must not starve.
	if rate := r.Advance(resource.New(4, 0, 0)); rate != 1 {
		t.Errorf("rate = %v, want 1", rate)
	}
}

// Property: Advance rate is always within [0, 1] and Progress is
// monotone non-decreasing.
func TestQuickAdvanceRateBounded(t *testing.T) {
	f := func(grantCPU, grantMem, grantSto float64) bool {
		g := resource.New(
			math.Abs(math.Mod(grantCPU, 100)),
			math.Abs(math.Mod(grantMem, 100)),
			math.Abs(math.Mod(grantSto, 100)),
		)
		j := spec()
		r := RuntimeAt(j, j.Arrival)
		before := r.Progress
		rate := r.Advance(g)
		return rate >= 0 && rate <= 1 && r.Progress >= before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: UnusedAt is non-negative and bounded by Request per kind.
func TestQuickUnusedBounds(t *testing.T) {
	f := func(k int) bool {
		j := spec()
		u := j.UnusedAt(k % 100)
		if !u.NonNegative() {
			return false
		}
		return u.FitsIn(j.Request)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// loopProgressRate is ProgressRate as it read before its loop ranged over
// demand, kept verbatim as TestProgressRateMatchesLoopReference's reference.
func loopProgressRate(granted, demand resource.Vector) float64 {
	if granted == demand {
		return 1
	}
	rate := 1.0
	for _, k := range resource.Kinds() {
		d := demand.At(k)
		if d <= 0 {
			continue
		}
		g := granted.At(k) / d
		if g < rate {
			rate = g
		}
	}
	if rate < 0 {
		rate = 0
	}
	return rate
}

// TestProgressRateMatchesLoopReference holds ProgressRate to its loop
// reference bit for bit (the sign of zero included) on the cases its
// branches tell apart: a skipped non-positive or NaN demand, a NaN or −0
// grant, equal vectors, and a negative grant the floor lifts to +0.
func TestProgressRateMatchesLoopReference(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	cases := []struct{ granted, demand resource.Vector }{
		{resource.New(1, 2, 3), resource.New(1, 2, 3)},
		{resource.New(negZero, 2, 3), resource.New(1, 2, 3)},
		{resource.New(0.5, 2, 3), resource.New(1, 0, -1)},
		{resource.New(0.5, 0.1, 3), resource.New(1, nan, 4)},
		{resource.New(nan, 1, 3), resource.New(1, 2, 3)},
		{resource.New(-1, 1, 3), resource.New(1, 2, 3)},
		{resource.New(5, 5, 5), resource.New(1, 2, 3)},
		{resource.New(1, 1, 1), resource.New(negZero, 0, nan)},
		{resource.New(negZero, 0, 0), resource.New(0, negZero, 0)},
		{resource.New(1e-300, 2, 3), resource.New(math.Inf(1), 2, 3)},
	}
	for _, c := range cases {
		got, want := ProgressRate(c.granted, c.demand), loopProgressRate(c.granted, c.demand)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("ProgressRate(%v, %v) = %v, loop reference %v", c.granted, c.demand, got, want)
		}
	}
}
