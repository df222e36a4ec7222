package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// runOpts are the settings of one workload run (one child process).
type runOpts struct {
	shape   string
	seed    int64
	seconds float64
	// minWarm is the least number of warm units measured however short
	// seconds is.
	minWarm int
	// setupBudget lets cheap set-ups repeat beyond setupMinReps until this
	// much time is spent, so millisecond-scale set-ups report a steady
	// median.
	setupBudget time.Duration
	// outDir receives trace-<workload>.json.
	outDir string
	// skipGolden turns the golden comparison off (-update-golden).
	skipGolden bool
}

// report is the outcome of one workload run: the result line the driver
// reads plus what the all-workloads report and -compare need beside it.
type report struct {
	Workload  string             `json:"workload"`
	Shape     string             `json:"shape"`
	Seed      int64              `json:"seed"`
	Trace     int                `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Digest    string             `json:"digest"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]reading `json:"metrics"`
	WallS     float64            `json:"wall_s"`
	// TracedUnitS is the wall of a traced run's warm unit, for
	// bench.trace_overhead_ratio.
	TracedUnitS float64 `json:"traced_unit_s,omitempty"`
	spans       []span
}

func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// registered returns the registry entry every emitted metric must have.
func registered(name string) metricDef {
	def, ok := findMetric(perLayer, name)
	if !ok {
		def, ok = findMetric(endToEnd, name)
	}
	if !ok {
		panic("bench: metric " + name + " is not in the registry")
	}
	return def
}

// put records a single measured value under the registry's unit and kind.
func (r *report) put(name string, value float64) {
	def := registered(name)
	r.Metrics[name] = reading{Value: value, Unit: def.Unit, Kind: def.Kind}
}

// omit records a metric this run could not measure, with the reason.
func (r *report) omit(name, why string) {
	def := registered(name)
	r.Metrics[name] = reading{Unit: def.Unit, Kind: def.Kind, Note: "omitted: " + why}
}

// putMedian records repeated measurements: their median as the value, with
// min, quartiles and n beside it.
func (r *report) putMedian(name string, values []float64) {
	def := registered(name)
	q1, med, q3 := quartiles(values)
	min := med
	for _, v := range values {
		if v < min {
			min = v
		}
	}
	r.Metrics[name] = reading{Value: med, Unit: def.Unit, Kind: def.Kind, N: len(values), Min: min, Q1: q1, Q3: q3}
}

// unitOutcome is what one unit produced; unitCost is what it cost the host.
type unitOutcome struct {
	digest  string
	vmSlots float64
	err     error
	sim     *sim.Result
	farm    *farmUnit
}

type unitCost struct {
	wallS, cpuS float64
	allocMB     float64
	mallocs     float64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// timeUnit runs one unit and measures its host cost. The collection before
// the clock starts puts every unit on the same heap footing.
func timeUnit(run func() unitOutcome) (unitOutcome, unitCost) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	out := run()
	d := time.Since(t0)
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	return out, unitCost{
		wallS: d.Seconds(), cpuS: c1 - c0,
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		mallocs: float64(m1.Mallocs - m0.Mallocs),
	}
}

func resultDigest(res *sim.Result) (string, error) {
	data, err := json.Marshal(res)
	if err != nil {
		return "", fmt.Errorf("encode result: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// runSimUnit is one sim.Run of the workload's config. The snapshot comes
// from the process-wide workload cache, which set-up has filled.
func runSimUnit(cfg sim.Config, vms int) unitOutcome {
	res, err := sim.Run(cfg)
	if err != nil {
		return unitOutcome{err: err}
	}
	out := unitOutcome{sim: res, vmSlots: float64(vms) * float64(res.Slots)}
	if out.digest, err = resultDigest(res); err != nil {
		out.err = err
	} else if res.SLO.Finished+res.SLO.Unfinished != res.NumJobs {
		out.err = fmt.Errorf("finished %d + unfinished %d != %d jobs", res.SLO.Finished, res.SLO.Unfinished, res.NumJobs)
	}
	return out
}

func runFarmUnitOutcome(w *workloadSpec, seed int64, workers int, tr *tracer) unitOutcome {
	u, err := runFarmUnit(w, seed, workers, tr)
	out := unitOutcome{farm: u, err: err}
	if err != nil {
		return out
	}
	out.vmSlots = u.vmSlots
	if out.digest, err = figuresDigest(u.figures); err != nil {
		out.err = err
	} else if !u.jobsBalanced {
		out.err = fmt.Errorf("a farm result lost jobs: finished + unfinished != submitted")
	} else if u.counters.Failed != 0 {
		out.err = fmt.Errorf("farm reported %d failed jobs", u.counters.Failed)
	}
	return out
}

// simSetup is one cold build of everything before a sim workload's first
// unit: the cluster, the workload snapshot through the (reset) process-wide
// cache, its resident tables and, for CORP, the pretraining history.
func simSetup(cfg sim.Config) (time.Duration, error) {
	start := time.Now()
	if _, err := cluster.New(cluster.Config{
		Profile: cfg.Profile, NumPMs: cfg.NumPMs, NumVMs: cfg.NumVMs, Heterogeneous: cfg.Heterogeneous,
	}); err != nil {
		return 0, err
	}
	snap, err := sim.PrepareWorkload(cfg)
	if err != nil {
		return 0, err
	}
	snap.Tables()
	if cfg.Scheduler.Scheme == scheduler.CORP {
		if _, _, err := snap.History(); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// Set-up is repeated at least setupMinReps times, and further (up to
// setupMaxReps) while the budget lasts.
const (
	setupMinReps = 3
	setupMaxReps = 25
)

func measureSetup(budget time.Duration, once func() (time.Duration, error)) ([]float64, error) {
	var secs []float64
	var spent time.Duration
	for len(secs) < setupMinReps || (spent < budget && len(secs) < setupMaxReps) {
		// Drop the previous rep's snapshot and hand its memory back to the
		// OS, so every rep is as cold as the first: an empty heap whose
		// pages must be faulted in again.
		workload.Default.Reset()
		debug.FreeOSMemory()
		d, err := once()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, d.Seconds())
		spent += d
	}
	return secs, nil
}

// measure is the untraced run: set-up, one cold unit, then warm units in a
// closed loop — one unit in flight — for opts.seconds.
func measure(w *workloadSpec, opts runOpts) (*report, error) {
	began := time.Now()
	rep := &report{
		Workload: w.name, Shape: opts.shape, Seed: opts.seed, Trace: 0,
		Correct: true, Metrics: map[string]reading{},
	}
	var setups []float64
	var unit func() unitOutcome
	var err error
	if w.isFarm() {
		setups, err = measureSetup(opts.setupBudget, func() (time.Duration, error) { return farmSetup(opts.seed) })
		unit = func() unitOutcome { return runFarmUnitOutcome(w, opts.seed, 1, nil) }
	} else {
		var vms int
		if vms, err = numVMs(w.simCfg(opts.seed, 1)); err != nil {
			return nil, err
		}
		setups, err = measureSetup(opts.setupBudget, func() (time.Duration, error) { return simSetup(w.simCfg(opts.seed, 1)) })
		unit = func() unitOutcome { return runSimUnit(w.simCfg(opts.seed, 1), vms) }
	}
	if err != nil {
		return nil, err
	}

	cold, _ := timeUnit(unit)
	rep.Digest = cold.digest
	rep.Attempted = 1
	checkUnit(rep, w, opts, "cold", cold, cold.digest)

	var costs []unitCost
	var vmSlots float64
	loop := time.Now()
	for len(costs) < opts.minWarm || time.Since(loop).Seconds() < opts.seconds {
		out, cost := timeUnit(unit)
		rep.Attempted++
		checkUnit(rep, w, opts, fmt.Sprintf("warm %d", len(costs)+1), out, cold.digest)
		costs = append(costs, cost)
		vmSlots = out.vmSlots
	}

	column := func(pick func(unitCost) float64) []float64 {
		xs := make([]float64, len(costs))
		for i, c := range costs {
			xs[i] = pick(c)
		}
		return xs
	}
	rep.putMedian("setup_s", setups)
	rep.putMedian("run_wall_s", column(func(c unitCost) float64 { return c.wallS }))
	rep.putMedian("run_cpu_s", column(func(c unitCost) float64 { return c.cpuS }))
	rep.put("vm_slots_per_s", vmSlots/rep.Metrics["run_wall_s"].Value)
	rep.putMedian("alloc_mb_per_run", column(func(c unitCost) float64 { return c.allocMB }))
	rep.putMedian("allocs_per_run", column(func(c unitCost) float64 { return c.mallocs }))
	rep.put("peak_rss_mb", peakRSSMB())
	rep.put("fail_ratio", float64(rep.Failed)/float64(rep.Attempted))
	rep.put("sim_digest_ok", boolTo01(rep.Correct))
	rep.WallS = time.Since(began).Seconds()
	return rep, nil
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// checkUnit counts a unit as failed when it returned an error, when its
// digest differs from the cold unit's (any seed), or from golden.json's
// (default seed).
func checkUnit(rep *report, w *workloadSpec, opts runOpts, label string, out unitOutcome, coldDigest string) {
	before := len(rep.Problems)
	switch {
	case out.err != nil:
		rep.fail("%s unit: %v", label, out.err)
	case out.digest != coldDigest:
		rep.fail("%s unit: digest %.12s differs from the cold unit's %.12s", label, out.digest, coldDigest)
	case !opts.skipGolden && opts.seed == goldenSeed:
		want, ok := goldenFor(opts.shape, w.name)
		if !ok {
			rep.fail("%s unit: golden.json has no digest for %s/%s (run -update-golden)", label, opts.shape, w.name)
		} else if out.digest != want.Digest {
			rep.fail("%s unit: digest %.12s differs from golden %.12s", label, out.digest, want.Digest)
		}
	}
	if len(rep.Problems) > before {
		rep.Failed++
	}
}

// peakRSSMB is the process's high-water resident set (VmHWM), which in a
// one-workload child process belongs to that workload alone.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1e3
		}
	}
	return 0
}
