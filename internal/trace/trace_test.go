package trace

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/job"
	"repro/internal/resource"
	"repro/internal/stats"
)

func TestGenerateShortJobsBasics(t *testing.T) {
	jobs, err := GenerateShortJobs(Config{Seed: 1, NumJobs: 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 200 {
		t.Fatalf("got %d jobs", len(jobs))
	}
	prevArrival := 0
	for i, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Fatalf("job %d invalid: %v", i, err)
		}
		if int(j.ID) != i {
			t.Errorf("job %d has ID %d", i, j.ID)
		}
		if j.Arrival < prevArrival {
			t.Error("jobs must be sorted by arrival")
		}
		prevArrival = j.Arrival
		if j.Duration < 1 || j.Duration > MaxShortJobSlots {
			t.Errorf("job %d duration %d outside [1, %d]", i, j.Duration, MaxShortJobSlots)
		}
		if len(j.Usage) != j.Duration {
			t.Errorf("job %d usage len %d != duration %d", i, len(j.Usage), j.Duration)
		}
	}
}

func TestGenerateShortJobsDeterministic(t *testing.T) {
	a, err := GenerateShortJobs(Config{Seed: 7, NumJobs: 50})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateShortJobs(Config{Seed: 7, NumJobs: 50})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("job %d differs across same-seed runs", i)
		}
	}
	c, err := GenerateShortJobs(Config{Seed: 8, NumJobs: 50})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if !reflect.DeepEqual(a[i].Usage, c[i].Usage) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should produce different workloads")
	}
}

// TestGeneratorAllocationsDoNotGrow is the allocation gate on trace
// generation: short-job series are appended straight into one presized
// arena and resident series into one exactly sized one, so neither
// generator's allocation count grows with the number of series. (Twenty
// runs a size keep a stray runtime allocation during a GC from rounding
// into the average.)
func TestGeneratorAllocationsDoNotGrow(t *testing.T) {
	for _, mean := range []int{0, 30} { // the default, and the scale profile's
		short := func(n int) float64 {
			return testing.AllocsPerRun(20, func() {
				if _, err := GenerateShortJobs(Config{Seed: 1, NumJobs: n, MeanDuration: mean}); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a, b := short(500), short(4000); a != b {
			t.Errorf("MeanDuration %d: GenerateShortJobs allocates %.0f times for 500 jobs, %.0f for 4000", mean, a, b)
		}
	}
	residents := func(vms int) float64 {
		caps := make([]resource.Vector, vms)
		for i := range caps {
			caps[i] = resource.New(4, 16, 180)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := GenerateResidents(ResidentConfig{Seed: 1}, caps, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := residents(50), residents(400); a != b {
		t.Errorf("GenerateResidents allocates %.0f times for 50 VMs, %.0f for 400", a, b)
	}
}

func TestGenerateShortJobsNegativeCount(t *testing.T) {
	if _, err := GenerateShortJobs(Config{NumJobs: -1}); err == nil {
		t.Error("negative NumJobs should fail")
	}
}

func TestClassMixRoughlyMatchesWeights(t *testing.T) {
	jobs, err := GenerateShortJobs(Config{Seed: 3, NumJobs: 2000})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[job.Class]int{}
	for _, j := range jobs {
		counts[j.Class]++
	}
	// Default weights 0.2/0.35/0.35/0.1 — allow generous slack.
	frac := func(c job.Class) float64 { return float64(counts[c]) / float64(len(jobs)) }
	if f := frac(job.CPUIntensive); f < 0.25 || f > 0.45 {
		t.Errorf("cpu-intensive fraction %v outside [0.25, 0.45]", f)
	}
	if f := frac(job.MemIntensive); f < 0.25 || f > 0.45 {
		t.Errorf("mem-intensive fraction %v outside [0.25, 0.45]", f)
	}
}

func TestClassDemandShape(t *testing.T) {
	jobs, err := GenerateShortJobs(Config{Seed: 5, NumJobs: 500})
	if err != nil {
		t.Fatal(err)
	}
	vmCap := resource.New(4, 16, 180)
	for _, j := range jobs {
		var wantDominant resource.Kind
		switch j.Class {
		case job.CPUIntensive:
			wantDominant = resource.CPU
		case job.MemIntensive:
			wantDominant = resource.Memory
		case job.StorageIntensive:
			wantDominant = resource.Storage
		default:
			continue
		}
		if got := j.Dominant(vmCap); got != wantDominant {
			t.Errorf("job %d class %v has dominant %v", j.ID, j.Class, got)
		}
	}
}

func TestShortJobDemandsFitHalfVM(t *testing.T) {
	jobs, err := GenerateShortJobs(Config{Seed: 11, NumJobs: 300})
	if err != nil {
		t.Fatal(err)
	}
	vmCap := resource.New(4, 16, 180)
	for _, j := range jobs {
		// Peak demand must fit in one VM (so placement is feasible); the
		// burst multiplier can push past half but never past the VM.
		if !j.PeakDemand().FitsIn(vmCap) {
			t.Errorf("job %d peak %v exceeds VM capacity", j.ID, j.PeakDemand())
		}
	}
}

func TestNoDominantPeriodInDemands(t *testing.T) {
	// The premise of the paper: short-job traces are pattern-free. The
	// PRESS-style detector should find no dominant period in the vast
	// majority of generated series.
	jobs, err := GenerateShortJobs(Config{Seed: 13, NumJobs: 200, MeanDuration: 20})
	if err != nil {
		t.Fatal(err)
	}
	withPattern := 0
	checked := 0
	var ps stats.PeriodScratch
	for _, j := range jobs {
		if j.Duration < 16 {
			continue
		}
		series := make([]float64, j.Duration)
		for k := range series {
			series[k] = j.Usage[k].At(resource.CPU)
		}
		checked++
		if _, ok := ps.DominantPeriod(series, 0.5); ok {
			withPattern++
		}
	}
	if checked == 0 {
		t.Skip("no long enough jobs generated")
	}
	if frac := float64(withPattern) / float64(checked); frac > 0.2 {
		t.Errorf("%.0f%% of series have a dominant period; workload is too periodic", frac*100)
	}
}

func TestGenerateResidents(t *testing.T) {
	caps := []resource.Vector{
		resource.New(4, 16, 180),
		resource.New(2, 4, 720),
	}
	res, err := GenerateResidents(ResidentConfig{Seed: 2}, caps, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d residents", len(res))
	}
	for i, r := range res {
		if r.ID != job.ID(1000+i) {
			t.Errorf("resident %d has ID %d", i, r.ID)
		}
		if !r.Request.FitsIn(caps[i]) {
			t.Errorf("resident %d reservation %v exceeds VM %v", i, r.Request, caps[i])
		}
		for s, u := range r.Usage {
			if !u.FitsIn(r.Request) {
				t.Errorf("resident %d usage at %d exceeds reservation", i, s)
				break
			}
		}
		// Mean usage must be well below the reservation (the slack CORP
		// harvests): check CPU mean < 80% of reserved CPU.
		mean := r.MeanDemand()
		if mean.At(resource.CPU) > 0.8*r.Request.At(resource.CPU) {
			t.Errorf("resident %d mean CPU %v too close to reservation %v",
				i, mean.At(resource.CPU), r.Request.At(resource.CPU))
		}
	}
}

func TestResidentsFluctuate(t *testing.T) {
	caps := []resource.Vector{resource.New(4, 16, 180)}
	res, err := GenerateResidents(ResidentConfig{Seed: 4, Horizon: 400}, caps, 0)
	if err != nil {
		t.Fatal(err)
	}
	series := make([]float64, len(res[0].Usage))
	for i, u := range res[0].Usage {
		series[i] = u.At(resource.CPU)
	}
	lo, hi, err := stats.MinMax(series)
	if err != nil {
		t.Fatal(err)
	}
	if hi-lo < 0.2*stats.Mean(series) {
		t.Errorf("resident usage barely fluctuates: range [%v, %v]", lo, hi)
	}
}

func TestDensify(t *testing.T) {
	coarse := []resource.Vector{
		resource.New(10, 10, 10),
		resource.New(40, 40, 40),
	}
	fine := Densify(coarse, 0, 1)
	if len(fine) != 2*CoarseSlots {
		t.Fatalf("len = %d, want %d", len(fine), 2*CoarseSlots)
	}
	// First fine slot equals the first coarse sample.
	if fine[0] != coarse[0] {
		t.Errorf("fine[0] = %v", fine[0])
	}
	// Interpolation is monotone toward the next sample within the first
	// coarse window.
	for s := 1; s < CoarseSlots; s++ {
		if fine[s].At(resource.CPU) < fine[s-1].At(resource.CPU) {
			t.Errorf("interpolation not monotone at %d", s)
			break
		}
	}
	// Midpoint is halfway.
	mid := fine[CoarseSlots/2].At(resource.CPU)
	if math.Abs(mid-25) > 1.1 {
		t.Errorf("midpoint = %v, want ≈ 25", mid)
	}
	if Densify(nil, 0.1, 1) != nil {
		t.Error("empty coarse should densify to nil")
	}
}

func TestDensifyJitterNonNegativeAndDeterministic(t *testing.T) {
	coarse := []resource.Vector{resource.New(1, 1, 1), resource.New(0.1, 0.1, 0.1)}
	a := Densify(coarse, 0.5, 42)
	b := Densify(coarse, 0.5, 42)
	if !reflect.DeepEqual(a, b) {
		t.Error("Densify must be deterministic per seed")
	}
	for i, v := range a {
		if !v.NonNegative() {
			t.Errorf("fine[%d] = %v negative", i, v)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	jobs, err := GenerateShortJobs(Config{Seed: 21, NumJobs: 25})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(jobs) {
		t.Fatalf("round trip count %d != %d", len(got), len(jobs))
	}
	for i := range jobs {
		if !reflect.DeepEqual(jobs[i], got[i]) {
			t.Fatalf("job %d mutated in JSON round trip", i)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	jobs, err := GenerateShortJobs(Config{Seed: 22, NumJobs: 25})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(jobs) {
		t.Fatalf("round trip count %d != %d", len(got), len(jobs))
	}
	for i := range jobs {
		if !reflect.DeepEqual(jobs[i], got[i]) {
			t.Fatalf("job %d mutated in CSV round trip", i)
		}
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString("{not json")); err == nil {
		t.Error("garbage JSON should fail")
	}
	if _, err := ReadJSON(bytes.NewBufferString(`[{"id":0,"class":"weird","arrival":0,"duration":1,"slo_factor":1,"request":[1,1,1],"usage":[[1,1,1]]}]`)); err == nil {
		t.Error("unknown class should fail")
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("a,b\n1,2\n")); err == nil {
		t.Error("wrong column count should fail")
	}
	bad := "job_id,class,arrival,duration,slo_factor,req_cpu,req_mem,req_sto,slot,use_cpu,use_mem,use_sto\nx,balanced,0,1,1,1,1,1,0,1,1,1\n"
	if _, err := ReadCSV(bytes.NewBufferString(bad)); err == nil {
		t.Error("non-numeric job_id should fail")
	}
}

func TestSortInts(t *testing.T) {
	xs := []int{5, 2, 8, 1, 2}
	sortInts(xs)
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			t.Fatalf("not sorted: %v", xs)
		}
	}
}

func BenchmarkGenerate300Jobs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := GenerateShortJobs(Config{Seed: int64(i), NumJobs: 300}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGenerateLongJobs(t *testing.T) {
	jobs, err := GenerateLongJobs(LongJobConfig{Seed: 3, NumJobs: 20}, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 20 {
		t.Fatalf("got %d long jobs", len(jobs))
	}
	prevArrival := 0
	for i, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Fatalf("long job %d invalid: %v", i, err)
		}
		if j.ID < 5000 || j.ID >= 5020 {
			t.Errorf("long job ID %d outside range", j.ID)
		}
		if j.Duration < 60 || j.Duration > 240 {
			t.Errorf("long job %d duration %d outside [60, 240]", i, j.Duration)
		}
		if j.Arrival < prevArrival {
			t.Error("long jobs must be sorted by arrival")
		}
		prevArrival = j.Arrival
		// Usage within the reservation (the slack is what CORP harvests).
		for s, u := range j.Usage {
			if !u.FitsIn(j.Request) {
				t.Fatalf("long job %d usage at %d exceeds reservation", i, s)
			}
		}
		mean := j.MeanDemand()
		if mean.At(resource.CPU) >= j.Request.At(resource.CPU) {
			t.Errorf("long job %d has no CPU slack", i)
		}
	}
	if _, err := GenerateLongJobs(LongJobConfig{NumJobs: -1}, 0); err == nil {
		t.Error("negative NumJobs should fail")
	}
}

func TestGenerateLongJobsDeterministic(t *testing.T) {
	a, _ := GenerateLongJobs(LongJobConfig{Seed: 9, NumJobs: 5}, 0)
	b, _ := GenerateLongJobs(LongJobConfig{Seed: 9, NumJobs: 5}, 0)
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("long job %d differs across same-seed runs", i)
		}
	}
}

func TestArrivalPatternNames(t *testing.T) {
	if ArrivalUniform.String() != "uniform" || ArrivalBursty.String() != "bursty" ||
		ArrivalDiurnal.String() != "diurnal" {
		t.Error("pattern names wrong")
	}
	if ArrivalPattern(9).String() != "ArrivalPattern(9)" {
		t.Error("unknown pattern name wrong")
	}
}

func TestBurstyArrivalsConcentrate(t *testing.T) {
	jobs, err := GenerateShortJobs(Config{Seed: 6, NumJobs: 400, ArrivalSpan: 200, Arrivals: ArrivalBursty})
	if err != nil {
		t.Fatal(err)
	}
	// Count distinct arrival slots: bursts concentrate arrivals into few
	// slots compared to uniform.
	distinct := map[int]bool{}
	for _, j := range jobs {
		distinct[j.Arrival] = true
		if j.Arrival < 0 || j.Arrival >= 200 {
			t.Fatalf("arrival %d outside span", j.Arrival)
		}
	}
	if len(distinct) > 80 {
		t.Errorf("bursty arrivals spread over %d slots; expected concentration", len(distinct))
	}
	uniform, err := GenerateShortJobs(Config{Seed: 6, NumJobs: 400, ArrivalSpan: 200})
	if err != nil {
		t.Fatal(err)
	}
	uDistinct := map[int]bool{}
	for _, j := range uniform {
		uDistinct[j.Arrival] = true
	}
	if len(distinct) >= len(uDistinct) {
		t.Errorf("bursty (%d slots) should concentrate more than uniform (%d)", len(distinct), len(uDistinct))
	}
}

func TestDiurnalArrivalsSkewTowardPeak(t *testing.T) {
	jobs, err := GenerateShortJobs(Config{Seed: 7, NumJobs: 600, ArrivalSpan: 200, Arrivals: ArrivalDiurnal})
	if err != nil {
		t.Fatal(err)
	}
	// sin peaks in the first half of the span: most arrivals land there.
	firstHalf := 0
	for _, j := range jobs {
		if j.Arrival < 100 {
			firstHalf++
		}
	}
	if frac := float64(firstHalf) / 600; frac < 0.6 {
		t.Errorf("diurnal first-half fraction %.2f; expected the sine peak to dominate", frac)
	}
}
