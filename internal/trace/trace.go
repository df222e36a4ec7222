// Package trace generates synthetic Google-trace-like workloads.
//
// The paper drives its evaluation with the 2011 Google cluster trace,
// keeping only short-lived jobs and transforming the 5-minute samples into
// a 10-second trace. The real trace is not redistributable, so this package
// synthesizes workloads that reproduce the statistical properties the
// paper's argument depends on:
//
//   - short lifetimes: durations of seconds to minutes with a 5-minute
//     timeout (heavy-tailed, truncated);
//   - no stable utilization pattern: per-slot demands are a mean-reverting
//     random walk, not a periodic signal;
//   - frequent fluctuation: regime-switching peak/valley bursts (what the
//     paper's HMM corrects for);
//   - multi-resource skew: CPU-, memory- and storage-intensive classes
//     (what complementary packing exploits);
//   - reservation slack: resident jobs reserve far more than their average
//     usage (Reiss et al.'s observation that average use is well below the
//     reservation) — the allocated-but-unused pool CORP harvests.
//
// All generation is deterministic given the seed.
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/fmath"
	"repro/internal/job"
	"repro/internal/resource"
)

// SlotSeconds is the simulation slot length; the paper transforms the
// 5-minute Google samples into a 10-second trace.
const SlotSeconds = 10

// CoarseSlots is how many fine slots one original 5-minute sample spans.
const CoarseSlots = 300 / SlotSeconds

// MaxShortJobSlots caps short-lived job durations at the paper's 5-minute
// timeout.
const MaxShortJobSlots = 300 / SlotSeconds

// ArrivalPattern selects how short-lived jobs arrive over the span.
type ArrivalPattern int

// Arrival patterns.
const (
	// ArrivalUniform scatters arrivals uniformly over the span (the
	// default; matches the paper's steady submission).
	ArrivalUniform ArrivalPattern = iota
	// ArrivalBursty concentrates arrivals into a few short bursts —
	// the flash-crowd case.
	ArrivalBursty
	// ArrivalDiurnal modulates the arrival rate with one sinusoidal
	// "day" across the span.
	ArrivalDiurnal
)

// String names the pattern.
func (a ArrivalPattern) String() string {
	switch a {
	case ArrivalUniform:
		return "uniform"
	case ArrivalBursty:
		return "bursty"
	case ArrivalDiurnal:
		return "diurnal"
	default:
		return fmt.Sprintf("ArrivalPattern(%d)", int(a))
	}
}

// Config parameterizes short-lived job generation.
type Config struct {
	Seed    int64
	NumJobs int

	// ArrivalSpan is the number of slots over which jobs arrive.
	// Zero defaults to 60 slots (10 minutes).
	ArrivalSpan int

	// Arrivals selects the arrival pattern; the zero value is uniform.
	Arrivals ArrivalPattern

	// MeanDuration is the mean nominal duration in slots; durations are
	// lognormal, truncated to [1, MaxShortJobSlots]. Zero defaults to 6
	// slots (one minute).
	MeanDuration int

	// SLOFactor scales nominal duration into the response-time
	// threshold. Zero defaults to 2.0.
	SLOFactor float64

	// VMCapacity scales job demands; a job's peak demand per kind stays
	// below roughly half of this. Zero defaults to the cluster-profile
	// VM (4 cores, 16 GB, 180 GB).
	VMCapacity resource.Vector

	// ClassWeights gives the sampling weight of each intensity class in
	// order Balanced, CPU, MEM, Storage. Zero defaults to
	// {0.2, 0.35, 0.35, 0.1} — mostly complementary CPU/MEM pairs, as in
	// the paper's motivating figure.
	ClassWeights [4]float64

	// Fluctuation is the relative amplitude of peak/valley bursts. Zero
	// defaults to 0.4.
	Fluctuation float64
}

func (c Config) withDefaults() Config {
	if c.ArrivalSpan <= 0 {
		c.ArrivalSpan = 60
	}
	if c.MeanDuration <= 0 {
		c.MeanDuration = 6
	}
	if c.SLOFactor <= 0 {
		c.SLOFactor = 2.0
	}
	if c.VMCapacity.IsZero() {
		c.VMCapacity = resource.New(4, 16, 180)
	}
	if c.ClassWeights == ([4]float64{}) {
		c.ClassWeights = [4]float64{0.2, 0.35, 0.35, 0.1}
	}
	if c.Fluctuation <= 0 {
		c.Fluctuation = 0.4
	}
	return c
}

// GenerateShortJobs produces NumJobs short-lived job specs. Jobs are sorted
// by arrival slot and have sequential IDs.
func GenerateShortJobs(cfg Config) ([]*job.Job, error) {
	cfg = cfg.withDefaults()
	if cfg.NumJobs < 0 {
		return nil, fmt.Errorf("trace: negative NumJobs %d", cfg.NumJobs)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	jobs := make([]*job.Job, cfg.NumJobs)
	// One backing array for all specs, and one contiguous arena for every
	// usage series, each series appended straight into it: the simulator's
	// execute loop gathers one usage element per running job per slot, and
	// the packed arena keeps concurrently running (≈ concurrently
	// generated) jobs on shared pages instead of a heap page apiece. The
	// arena is presized to the durations' expected total, so it almost
	// never moves; ends records where each series stops, and the Usage
	// slices are cut only once it has stopped growing.
	specs := make([]job.Job, cfg.NumJobs)
	ends := make([]int, cfg.NumJobs)
	arena := make([]resource.Vector, 0, expectedSlots(cfg.NumJobs, cfg.MeanDuration))
	arrivals := sampleArrivals(rng, cfg.Arrivals, cfg.NumJobs, cfg.ArrivalSpan)
	sortInts(arrivals)
	for i := range specs {
		class := sampleClass(rng, cfg.ClassWeights)
		dur := sampleDuration(rng, cfg.MeanDuration)
		base := classBaseDemand(rng, class, cfg.VMCapacity)
		start := len(arena)
		arena = appendDemandSeries(arena, rng, dur, base, cfg.Fluctuation)
		ends[i] = len(arena)
		usage := arena[start:]
		specs[i] = job.Job{
			ID:        job.ID(i),
			Class:     class,
			Arrival:   arrivals[i],
			Duration:  dur,
			Usage:     usage,
			Request:   resource.MaxAcross(usage),
			SLOFactor: cfg.SLOFactor,
		}
		if err := specs[i].Validate(); err != nil {
			return nil, fmt.Errorf("trace: generated invalid job: %w", err)
		}
	}
	start := 0
	for i := range specs {
		specs[i].Usage = arena[start:ends[i]:ends[i]]
		start = ends[i]
		jobs[i] = &specs[i]
	}
	return jobs, nil
}

// ResidentConfig parameterizes the long-standing tenant load whose
// allocated-but-unused resources CORP harvests.
type ResidentConfig struct {
	Seed int64

	// Horizon is the number of slots of usage series to generate per
	// resident. Zero defaults to 600 slots (100 minutes).
	Horizon int

	// ReservedShare is the fraction of VM capacity the residents of one
	// VM reserve in total. Zero defaults to 0.7.
	ReservedShare float64

	// MeanUseShare is the average fraction of its reservation a resident
	// actually uses. Zero defaults to 0.45 (Google-trace-like slack).
	MeanUseShare float64

	// Fluctuation is the burst amplitude. Zero defaults to 0.5.
	Fluctuation float64

	// JumpProb is the probability that a coarse-sample boundary is a
	// step discontinuity (short-lived-job churn) rather than a smooth
	// transition. Zero defaults to 0.5.
	JumpProb float64
}

func (c ResidentConfig) withDefaults() ResidentConfig {
	if c.Horizon <= 0 {
		c.Horizon = 600
	}
	if c.ReservedShare <= 0 {
		c.ReservedShare = 0.7
	}
	if c.MeanUseShare <= 0 {
		c.MeanUseShare = 0.45
	}
	if c.Fluctuation <= 0 {
		c.Fluctuation = 0.5
	}
	if c.JumpProb <= 0 {
		c.JumpProb = 0.5
	}
	return c
}

// GenerateResidents produces per-VM resident jobs for the given VM
// capacities. Each VM hosts one resident job reserving ReservedShare of its
// capacity with fluctuating usage around MeanUseShare of the reservation.
// Resident IDs start at firstID.
func GenerateResidents(cfg ResidentConfig, vmCaps []resource.Vector, firstID job.ID) ([]*job.Job, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	residents := make([]*job.Job, 0, len(vmCaps))
	specs := make([]job.Job, len(vmCaps))
	// Every series is Horizon long, so one exactly sized arena holds them
	// all and never moves.
	arena := make([]resource.Vector, 0, len(vmCaps)*cfg.Horizon)
	var scratch seriesScratch
	for i, cap := range vmCaps {
		reserve := cap.Scale(cfg.ReservedShare)
		base := reserve.Scale(cfg.MeanUseShare)
		start := len(arena)
		arena = scratch.appendSmoothSeries(arena, rng, cfg.Horizon, base, cfg.Fluctuation, cfg.JumpProb)
		usage := arena[start:len(arena):len(arena)]
		// Usage cannot exceed the reservation.
		for k := range usage {
			usage[k] = usage[k].ClampTo(reserve)
		}
		j := &specs[i]
		*j = job.Job{
			ID:        firstID + job.ID(i),
			Class:     job.Balanced,
			Arrival:   0,
			Duration:  cfg.Horizon,
			Usage:     usage,
			Request:   reserve,
			SLOFactor: 10, // residents are long-lived; SLO not at issue
		}
		if err := j.Validate(); err != nil {
			return nil, fmt.Errorf("trace: generated invalid resident: %w", err)
		}
		residents = append(residents, j)
	}
	return residents, nil
}

// LongJobConfig parameterizes long-lived service jobs for the cooperative
// mixed-workload extension (the paper: CORP "can cooperate with other
// methods for long-lived jobs for resource allocation"; future work: "we
// will consider both short-lived and long-lived jobs").
type LongJobConfig struct {
	Seed    int64
	NumJobs int

	// ArrivalSpan spreads arrivals; zero defaults to 60 slots.
	ArrivalSpan int
	// MinDuration/MaxDuration bound durations in slots; zeros default to
	// 60 and 240 (10–40 minutes).
	MinDuration, MaxDuration int
	// VMCapacity scales demands; zero defaults to the cluster VM.
	VMCapacity resource.Vector
	// ReservedShare is the fraction of a VM each long job reserves;
	// zero defaults to 0.25.
	ReservedShare float64
	// MeanUseShare is the average used fraction of the reservation;
	// zero defaults to 0.5.
	MeanUseShare float64
	// SLOFactor; zero defaults to 4 (long services have loose deadlines).
	SLOFactor float64
}

func (c LongJobConfig) withDefaults() LongJobConfig {
	if c.ArrivalSpan <= 0 {
		c.ArrivalSpan = 60
	}
	if c.MinDuration <= 0 {
		c.MinDuration = 60
	}
	if c.MaxDuration <= c.MinDuration {
		c.MaxDuration = c.MinDuration * 4
	}
	if c.VMCapacity.IsZero() {
		c.VMCapacity = resource.New(4, 16, 180)
	}
	if c.ReservedShare <= 0 {
		c.ReservedShare = 0.25
	}
	if c.MeanUseShare <= 0 {
		c.MeanUseShare = 0.5
	}
	if c.SLOFactor <= 0 {
		c.SLOFactor = 4
	}
	return c
}

// GenerateLongJobs produces long-lived service jobs whose reservations
// exceed their smooth, fluctuating usage — additional donors for CORP's
// opportunistic pool in mixed-workload runs. IDs start at firstID.
func GenerateLongJobs(cfg LongJobConfig, firstID job.ID) ([]*job.Job, error) {
	cfg = cfg.withDefaults()
	if cfg.NumJobs < 0 {
		return nil, fmt.Errorf("trace: negative NumJobs %d", cfg.NumJobs)
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x10f6))
	jobs := make([]*job.Job, 0, cfg.NumJobs)
	specs := make([]job.Job, cfg.NumJobs)
	var scratch seriesScratch
	for i := 0; i < cfg.NumJobs; i++ {
		dur := cfg.MinDuration + rng.Intn(cfg.MaxDuration-cfg.MinDuration+1)
		reserve := cfg.VMCapacity.Scale(cfg.ReservedShare * (0.7 + 0.6*rng.Float64()))
		base := reserve.Scale(cfg.MeanUseShare)
		usage := scratch.appendSmoothSeries(nil, rng, dur, base, 0.5, 0.5)
		for k := range usage {
			usage[k] = usage[k].ClampTo(reserve)
		}
		j := &specs[i]
		*j = job.Job{
			ID:        firstID + job.ID(i),
			Class:     job.Balanced,
			Arrival:   rng.Intn(cfg.ArrivalSpan),
			Duration:  dur,
			Usage:     usage,
			Request:   reserve,
			SLOFactor: cfg.SLOFactor,
		}
		if err := j.Validate(); err != nil {
			return nil, fmt.Errorf("trace: generated invalid long job: %w", err)
		}
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].Arrival < jobs[b].Arrival })
	return jobs, nil
}

// Densify performs the paper's 5-minute → 10-second transformation: each
// coarse sample becomes CoarseSlots fine slots, linearly interpolated
// toward the next sample with multiplicative jitter of the given relative
// amplitude. Deterministic for a given seed.
func Densify(coarse []resource.Vector, jitter float64, seed int64) []resource.Vector {
	if len(coarse) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	fine := make([]resource.Vector, 0, len(coarse)*CoarseSlots)
	for i, cur := range coarse {
		next := cur
		if i+1 < len(coarse) {
			next = coarse[i+1]
		}
		for s := 0; s < CoarseSlots; s++ {
			f := float64(s) / float64(CoarseSlots)
			v := cur.Scale(1 - f).Add(next.Scale(f))
			if jitter > 0 {
				v = v.Scale(1 + jitter*(2*rng.Float64()-1))
			}
			fine = append(fine, v.ClampNonNegative())
		}
	}
	return fine
}

// sampleArrivals draws arrival slots for the given pattern.
func sampleArrivals(rng *rand.Rand, pattern ArrivalPattern, n, span int) []int {
	arrivals := make([]int, n)
	switch pattern {
	case ArrivalBursty:
		// 3 burst epochs, each 5% of the span wide.
		nBursts := 3
		width := span / 20
		if width < 1 {
			width = 1
		}
		centers := make([]int, nBursts)
		for b := range centers {
			centers[b] = rng.Intn(span)
		}
		for i := range arrivals {
			c := centers[rng.Intn(nBursts)]
			a := c + rng.Intn(2*width+1) - width
			if a < 0 {
				a = 0
			}
			if a >= span {
				a = span - 1
			}
			arrivals[i] = a
		}
	case ArrivalDiurnal:
		// Rejection-sample against 0.5·(1 + sin) over one "day".
		for i := range arrivals {
			for {
				a := rng.Intn(span)
				rate := 0.5 * (1 + math.Sin(2*math.Pi*float64(a)/float64(span)))
				if rng.Float64() < rate {
					arrivals[i] = a
					break
				}
			}
		}
	default:
		for i := range arrivals {
			arrivals[i] = rng.Intn(span)
		}
	}
	return arrivals
}

// sampleClass draws an intensity class with the given weights.
func sampleClass(rng *rand.Rand, w [4]float64) job.Class {
	var total float64
	for _, x := range w {
		total += x
	}
	u := rng.Float64() * total
	for i, x := range w {
		if u < x {
			return job.Class(i)
		}
		u -= x
	}
	return job.Balanced
}

// The short-job duration law: lognormal with σ = durationSigma, its μ set
// so the untruncated mean is the configured one (μ = ln mean − σ²/2).
const (
	durationSigma = 0.8
	durationShift = 0.32 // σ²/2
)

// sampleDuration draws a lognormal duration (heavy tail), truncated to
// [1, MaxShortJobSlots].
func sampleDuration(rng *rand.Rand, mean int) int {
	mu := math.Log(float64(mean)) - durationShift
	d := int(fmath.Exp(mu + durationSigma*rng.NormFloat64()))
	if d < 1 {
		d = 1
	}
	if d > MaxShortJobSlots {
		d = MaxShortJobSlots
	}
	return d
}

// expectedSlots is the usage-series total GenerateShortJobs presizes its
// arena to for n jobs: n times sampleDuration's mean plus three standard
// deviations of the sum, so the arena outgrows it only on a rare tail draw.
// The mean is Σ_{m≥0} P(d > m) with d ≥ 1 and d > m ⟺ exp(μ + σZ) ≥ m+1;
// each duration lies in [1, MaxShortJobSlots], which bounds its standard
// deviation by half that range.
func expectedSlots(n, mean int) int {
	mu := math.Log(float64(mean)) - durationShift
	perJob := 1.0
	for m := 1; m < MaxShortJobSlots; m++ {
		perJob += 0.5 * math.Erfc((math.Log(float64(m+1))-mu)/(durationSigma*math.Sqrt2))
	}
	sd := float64(MaxShortJobSlots-1) / 2
	return int(float64(n)*perJob+3*sd*math.Sqrt(float64(n))) + MaxShortJobSlots
}

// classBaseDemand draws a base demand vector for a class. Dominant kinds
// sit at 8–20% of VM capacity, non-dominant at 2–7% (bursts push peaks
// well above the base, so requests land around a quarter of a VM).
func classBaseDemand(rng *rand.Rand, class job.Class, vmCap resource.Vector) resource.Vector {
	hi := func() float64 { return 0.08 + 0.12*rng.Float64() }
	lo := func() float64 { return 0.02 + 0.05*rng.Float64() }
	var shares resource.Vector
	switch class {
	case job.CPUIntensive:
		shares = resource.New(hi(), lo(), lo())
	case job.MemIntensive:
		shares = resource.New(lo(), hi(), lo())
	case job.StorageIntensive:
		shares = resource.New(lo(), lo(), hi())
	default: // Balanced
		m := 0.05 + 0.08*rng.Float64()
		shares = resource.New(m, m, m)
	}
	return shares.Mul(vmCap)
}

// regime indices for the burst process.
const (
	regimeNormal = iota
	regimePeak
	regimeValley
)

// appendDemandSeries appends an n-slot demand series around base to dst: a
// mean-reverting multiplicative walk modulated by a three-regime
// (normal/peak/valley) Markov burst process. This is deliberately
// pattern-free — no periodic component — matching the paper's premise that
// short-lived jobs "do not exhibit certain resource utilization patterns".
func appendDemandSeries(dst []resource.Vector, rng *rand.Rand, n int, base resource.Vector, amp float64) []resource.Vector {
	level := 1.0
	regime := regimeNormal
	for t := 0; t < n; t++ {
		// Regime switching: enter a burst with p=0.12, leave with p=0.35.
		switch regime {
		case regimeNormal:
			if rng.Float64() < 0.12 {
				if rng.Float64() < 0.5 {
					regime = regimePeak
				} else {
					regime = regimeValley
				}
			}
		default:
			if rng.Float64() < 0.35 {
				regime = regimeNormal
			}
		}
		// Mean-reverting walk on the multiplicative level.
		level += 0.5*(1-level) + 0.12*rng.NormFloat64()
		if level < 0.6 {
			level = 0.6
		}
		if level > 1.5 {
			level = 1.5
		}
		mult := level
		switch regime {
		case regimePeak:
			mult *= 1 + amp
		case regimeValley:
			mult *= 1 - amp
			if mult < 0.05 {
				mult = 0.05
			}
		}
		dst = append(dst, base.Scale(mult).ClampNonNegative())
	}
	return dst
}

// seriesScratch holds the transient buffers appendSmoothSeries needs
// (coarse process, jump flags, jitter RNG) so generators looping over many
// series pay for them once instead of per series. Only the appended fine
// series escapes; everything here is overwritten on the next call.
type seriesScratch struct {
	coarse []resource.Vector
	jump   []bool
	jitter *rand.Rand
}

// appendSmoothSeries appends an n-slot series to dst and returns it: resident
// usage built the way the paper's own trace was built: a coarse 5-minute-granularity process (mean-reverting level with
// persistent peak/valley burst regimes) is transformed to 10-second slots
// by interpolation with small multiplicative jitter — exactly the paper's
// "we transformed the ... 5-minute trace into [a] 10-second trace". The
// result fluctuates at the multi-minute scale (what the HMM corrects for)
// while staying smooth at the slot scale (as a resampled trace is).
func (sc *seriesScratch) appendSmoothSeries(dst []resource.Vector, rng *rand.Rand, n int, base resource.Vector, amp, jumpProb float64) []resource.Vector {
	nCoarse := n/CoarseSlots + 2
	if cap(sc.coarse) < nCoarse {
		sc.coarse = make([]resource.Vector, nCoarse)
		sc.jump = make([]bool, nCoarse)
	}
	coarse := sc.coarse[:nCoarse]
	level := 1.0
	regime := regimeNormal
	for i := range coarse {
		switch regime {
		case regimeNormal:
			if rng.Float64() < 0.30 {
				if rng.Float64() < 0.5 {
					regime = regimePeak
				} else {
					regime = regimeValley
				}
			}
		default:
			if rng.Float64() < 0.40 { // bursts last ~2.5 coarse steps
				regime = regimeNormal
			}
		}
		level += 0.4*(1-level) + 0.12*rng.NormFloat64()
		if level < 0.2 {
			level = 0.2
		}
		if level > 1.8 {
			level = 1.8
		}
		mult := level
		switch regime {
		case regimePeak:
			mult *= 1 + amp
		case regimeValley:
			mult *= 1 - amp
			if mult < 0.05 {
				mult = 0.05
			}
		}
		coarse[i] = base.Scale(mult)
	}
	// Short-lived-job churn causes step discontinuities: at some coarse
	// boundaries the level jumps (a job finished or arrived) instead of
	// drifting. Densify piecewise: hold-then-jump at jump boundaries,
	// interpolate elsewhere.
	jump := sc.jump[:nCoarse]
	for i := range jump {
		jump[i] = rng.Float64() < jumpProb
	}
	if sc.jitter == nil {
		sc.jitter = rand.New(rand.NewSource(rng.Int63()))
	} else {
		// Seed replays the same sequence rand.New(rand.NewSource(s))
		// would produce, so reuse is draw-for-draw identical.
		sc.jitter.Seed(rng.Int63())
	}
	jitterRng := sc.jitter
	// The fine series escapes (it becomes the job's Usage): into dst's
	// arena when the caller sized one, else as one allocation sized exactly
	// n. Trailing jitter draws for the unused tail of the last coarse step
	// are skipped, which is unobservable because the jitter RNG is
	// re-seeded per series.
	if dst == nil {
		dst = make([]resource.Vector, 0, n)
	}
	fine, end := dst, len(dst)+n
densify:
	for i := 0; i < nCoarse; i++ {
		cur := coarse[i]
		next := cur
		if i+1 < nCoarse && !jump[i+1] {
			next = coarse[i+1]
		}
		for s := 0; s < CoarseSlots; s++ {
			f := float64(s) / float64(CoarseSlots)
			v := cur.Scale(1 - f).Add(next.Scale(f))
			v = v.Scale(1 + 0.04*(2*jitterRng.Float64()-1))
			fine = append(fine, v.ClampNonNegative())
			if len(fine) == end {
				break densify
			}
		}
	}
	return fine
}

// sortInts sorts ascending. Small lists (the paper-scale 50–300 arrivals)
// use insertion sort; larger ones (the scale profile generates hundreds of
// thousands of arrivals, where insertion sort's O(n²) dominated the whole
// snapshot build) route through sort.Ints. Both produce the identical
// sorted slice, so generated workloads are byte-for-byte unchanged.
func sortInts(xs []int) {
	if len(xs) > 64 {
		sort.Ints(xs)
		return
	}
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
