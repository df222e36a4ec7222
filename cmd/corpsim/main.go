// Command corpsim runs one provisioning simulation and prints its metrics.
//
// Usage:
//
//	corpsim [flags]
//
//	-scheme   CORP | RCCR | CloudScale | DRA        (default CORP)
//	-profile  cluster | ec2 | scale                  (default cluster)
//	-jobs     number of short-lived jobs             (default 300)
//	-pms      physical machines (0 = profile default)
//	-vms      virtual machines  (0 = profile default)
//	-seed     workload seed                          (default 1)
//	-pth      CORP Eq. 21 gate, in (0, 1]             (0 = default)
//	-eta      confidence level, in (0, 1)            (0 = default)
//	-json     emit the result as JSON
//	-long     long-lived service jobs (cooperative mixed workload)
//	-hetero   carve unequal VM sizes (exercises Eq. 22)
//	-timeline write a per-slot CSV timeline to this file
//	-faults   per-VM per-slot crash probability (0 = fault-free)
//	-mttr     mean VM repair time in slots (with -faults)
//	-surge    per-VM per-slot resident demand-surge probability
//	-det      deterministic virtual clock for the overhead metric
//	-workers  per-kind training goroutines, at most 3 (0 = auto from
//	          the shared budget, 1 = serial); results identical at any
//	          count
//
// A value no run can honour (-eta 1, -faults 2, -jobs -5, ...) is an error
// naming the field, not a silent run of something else.
//
// Example:
//
//	corpsim -scheme CORP -jobs 300 -profile cluster
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/resource"
	"repro/internal/scheduler"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "corpsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("corpsim", flag.ContinueOnError)
	schemeName := fs.String("scheme", "CORP", "provisioning scheme: CORP, RCCR, CloudScale or DRA")
	profileName := fs.String("profile", "cluster", "testbed profile: cluster, ec2 or scale")
	jobs := fs.Int("jobs", 300, "number of short-lived jobs")
	pms := fs.Int("pms", 0, "physical machines (0 = profile default)")
	vms := fs.Int("vms", 0, "virtual machines (0 = profile default)")
	seed := fs.Int64("seed", 1, "workload seed")
	pth := fs.Float64("pth", 0, "CORP Eq. 21 probability threshold in (0, 1] (0 = default)")
	eta := fs.Float64("eta", 0, "confidence level in (0, 1) (0 = default)")
	asJSON := fs.Bool("json", false, "emit the result as JSON")
	longJobs := fs.Int("long", 0, "long-lived service jobs (cooperative mixed workload)")
	hetero := fs.Bool("hetero", false, "carve unequal VM sizes (exercises Eq. 22)")
	timeline := fs.String("timeline", "", "write a per-slot CSV timeline to this file")
	faultRate := fs.Float64("faults", 0, "per-VM per-slot crash probability (0 = fault-free)")
	mttr := fs.Int("mttr", 0, "mean VM repair time in slots (0 = default)")
	surge := fs.Float64("surge", 0, "per-VM per-slot resident demand-surge probability")
	det := fs.Bool("det", false, "deterministic virtual clock for the overhead metric")
	workers := fs.Int("workers", 0, "per-kind training goroutines, at most 3; results identical at any count (0 = auto, 1 = serial)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (flags stop at the first non-flag word)", fs.Arg(0))
	}

	scheme, err := parseScheme(*schemeName)
	if err != nil {
		return err
	}
	profile, err := parseProfile(*profileName)
	if err != nil {
		return err
	}

	cfg := sim.Config{
		Profile: profile,
		NumPMs:  *pms,
		NumVMs:  *vms,
		NumJobs: *jobs,
		Seed:    *seed,
		Scheduler: scheduler.Config{
			Scheme: scheme,
			Seed:   *seed,
		},
	}
	cfg.Scheduler.Corp.Pth = *pth
	cfg.Scheduler.Corp.Eta = *eta
	cfg.Scheduler.RCCR.Eta = *eta
	cfg.LongJobs = *longJobs
	cfg.Heterogeneous = *hetero
	cfg.RecordTimeline = *timeline != ""
	cfg.Faults = faults.Config{
		Seed:         *seed,
		VMCrashProb:  *faultRate,
		PMCrashProb:  *faultRate / 10,
		MeanDowntime: *mttr,
		SurgeProb:    *surge,
	}
	if *det {
		cfg.Clock = &sim.VirtualClock{StepMicros: 150}
	}
	cfg.Workers = *workers

	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	if *timeline != "" {
		f, err := os.Create(*timeline)
		if err != nil {
			return err
		}
		if err := sim.WriteTimelineCSV(f, res.Timeline); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", " ")
		return enc.Encode(res)
	}
	printResult(out, res)
	return nil
}

func parseScheme(name string) (scheduler.Scheme, error) {
	for _, sc := range scheduler.Schemes() {
		if strings.EqualFold(sc.String(), name) {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("unknown scheme %q", name)
}

func parseProfile(name string) (cluster.Profile, error) {
	switch strings.ToLower(name) {
	case "cluster":
		return cluster.ProfileCluster, nil
	case "ec2":
		return cluster.ProfileEC2, nil
	case "scale":
		return cluster.ProfileScale, nil
	default:
		return 0, fmt.Errorf("unknown profile %q", name)
	}
}

func printResult(out *os.File, r *sim.Result) {
	fmt.Fprintf(out, "scheme      %s on %s (%d jobs, %d slots)\n", r.Scheme, r.Profile, r.NumJobs, r.Slots)
	fmt.Fprintf(out, "utilization")
	for _, k := range resource.Kinds() {
		fmt.Fprintf(out, " %s=%.3f", k, r.Utilization[k])
	}
	fmt.Fprintf(out, " overall=%.3f (wastage %.3f)\n", r.Overall, r.Wastage)
	fmt.Fprintf(out, "cluster    ")
	for _, k := range resource.Kinds() {
		fmt.Fprintf(out, " %s=%.3f", k, r.ClusterUtilization[k])
	}
	fmt.Fprintf(out, " overall=%.3f\n", r.ClusterOverall)
	fmt.Fprintf(out, "prediction  error rate %.3f over %d samples (ε band)\n",
		r.PredictionErrorRate, r.PredictionSamples)
	fmt.Fprintf(out, "SLO         violation rate %.3f (finished %d, violated %d, unfinished %d)\n",
		r.SLORate, r.SLO.Finished, r.SLO.Violated, r.SLO.Unfinished)
	fmt.Fprintf(out, "placement   opportunistic %d, fresh %d, never placed %d, mean response %.1f slots (P50 %d, P95 %d)\n",
		r.PlacedOpportunistic, r.PlacedFresh, r.NeverPlaced, r.MeanResponseSlots, r.ResponseP50, r.ResponseP95)
	fmt.Fprintf(out, "fairness    Jain index %.3f over short-job service rates\n", r.Fairness)
	if r.LongPlaced+r.LongUnplaced > 0 {
		fmt.Fprintf(out, "long jobs   placed %d, unplaced %d, finished %d, failed %d\n",
			r.LongPlaced, r.LongUnplaced, r.LongFinished, r.LongFailed)
	}
	if rec := r.Recovery; rec.VMCrashes+rec.PMCrashes+rec.SurgeSlots+rec.Delays > 0 {
		fmt.Fprintf(out, "faults      %d VM crashes (%d PM), %d recoveries, %d surge slots, %d delays\n",
			rec.VMCrashes, rec.PMCrashes, rec.VMRecoveries, rec.SurgeSlots, rec.Delays)
		fmt.Fprintf(out, "recovery    %d evictions, %d retries (%d exhausted), %d replaced (mean %.1f slots), violations failure/starvation %d/%d\n",
			rec.Evictions, rec.Retries, rec.RetriesExhausted, rec.Replaced,
			rec.MeanTimeToReplace(), rec.ViolationsFailure, rec.ViolationsStarvation)
	}
	fmt.Fprintf(out, "overhead    %.1f ms (compute %.1f ms + comm %.1f ms over %d ops)\n",
		r.Overhead.TotalMillis(), r.Overhead.ComputeMicros/1000,
		r.Overhead.CommMicros/1000, r.Overhead.Operations)
}
