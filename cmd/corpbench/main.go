// Command corpbench regenerates the paper's tables and figures as text
// series, and doubles as the perf-harness front end.
//
// Usage:
//
//	corpbench [flags]
//
//	-fig        figure id (tableII, fig06..fig14, ablations) or "all"
//	-seed       workload seed (default 1)
//	-quick      small cluster and 3-point sweeps (default true)
//	-workers    intra-run prediction-engine workers per simulation
//	            (0 = auto from the shared budget, 1 = serial; figures
//	            are identical at any value)
//	-workload-cache  on | off: share generated workload snapshots across
//	            the sweep's runs (default on; figures are bit-identical
//	            either way — see the cache-equivalence test)
//	-forecast-tier  off | auto: CORP two-tier predictor for figure runs
//	            (default off; off is bit-identical to the single-tier
//	            pipeline — see the batch-equivalence test)
//	-progress   print per-batch sweep progress to stderr
//	-list       print the available figure ids and exit
//	-md         render the output as a Markdown report
//	-json       run the perf benchmark suite and write a JSON snapshot
//	-out        snapshot path for -json (default BENCH_<date>.json)
//	-bench-diff compare two snapshots "old.json,new.json"; non-zero exit
//	            on >10% ns/op regression in the DNN kernels (not gated,
//	            and the report says so, when the snapshots' dnn_kernel
//	            tiers differ — an AVX2 box against a generic one)
//	-bench-tol  fractional regression tolerance for -bench-diff (default 0.10)
//	-bench-filter with -json, run only benches whose name contains one of
//	            these comma-separated substrings (e.g. "scale/,sim/span")
//	-cpuprofile write a pprof CPU profile of the run to the given file
//	-memprofile write a pprof heap profile at exit to the given file
//
// Examples:
//
//	corpbench -fig fig06
//	corpbench -fig all -quick=false     # full paper-scale run (slow)
//	corpbench -json -out BENCH_2026-10-01.json
//	corpbench -bench-diff BENCH_old.json,BENCH_new.json
//	corpbench -fig fig06 -cpuprofile cpu.out
//	corpbench -json -bench-filter scale/sim-scale5k -cpuprofile cpu.pprof -out /tmp/scale.json
//	corpbench -json -bench-filter scale/,sim/span -out /tmp/groups.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/perf"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "corpbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("corpbench", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure id or \"all\"")
	seed := fs.Int64("seed", 1, "workload seed")
	quick := fs.Bool("quick", true, "small cluster and 3-point sweeps")
	workers := fs.Int("workers", 0, "intra-run prediction-engine workers per simulation (0 = auto, 1 = serial)")
	wlCache := fs.String("workload-cache", "on", "share generated workload snapshots across runs: on or off")
	forecastTier := fs.String("forecast-tier", "off", "CORP two-tier predictor for figure runs: off or auto")
	progress := fs.Bool("progress", false, "print per-batch sweep progress to stderr")
	list := fs.Bool("list", false, "print the available figure ids and exit")
	md := fs.Bool("md", false, "render the output as a Markdown report")
	benchJSON := fs.Bool("json", false, "run the perf benchmark suite and write a JSON snapshot")
	benchOut := fs.String("out", "", "snapshot path for -json (default BENCH_<date>.json)")
	benchQuick := fs.Bool("bench-quick", false, "with -json, skip the end-to-end figure bench")
	benchFilter := fs.String("bench-filter", "", "with -json, run only benches whose name contains one of these comma-separated substrings")
	benchDiff := fs.String("bench-diff", "", "compare two snapshots \"old.json,new.json\"")
	benchTol := fs.Float64("bench-tol", 0.10, "fractional ns/op regression tolerance for -bench-diff")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch *wlCache {
	case "on":
		corp.SetWorkloadCache(true)
	case "off":
		corp.SetWorkloadCache(false)
	default:
		return fmt.Errorf("workload-cache: want on or off, got %q", *wlCache)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "corpbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "corpbench: memprofile:", err)
			}
		}()
	}

	switch {
	case *list:
		for _, id := range corp.FigureIDs() {
			fmt.Fprintln(out, id)
		}
		return nil
	case *benchDiff != "":
		return runBenchDiff(out, *benchDiff, *benchTol)
	case *benchJSON:
		return runBenchJSON(out, *benchOut, *benchQuick, *benchFilter)
	}

	switch *forecastTier {
	case "off", "auto":
	default:
		return fmt.Errorf("forecast-tier: want off or auto, got %q", *forecastTier)
	}
	opts := corp.Options{Seed: *seed, Quick: *quick, Workers: *workers, ForecastTier: *forecastTier}
	if *progress {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "corpbench: batch %d/%d runs done\n", done, total)
		}
	}
	ids := []string{*fig}
	if *fig == "all" {
		ids = corp.FigureIDs()
	}
	var figs []*corp.Figure
	for _, id := range ids {
		start := time.Now()
		f, err := corp.ReproduceFigure(id, opts)
		if err != nil {
			return err
		}
		if *md {
			figs = append(figs, f)
			continue
		}
		fmt.Fprint(out, f.String())
		fmt.Fprintf(out, "  (%s in %.1fs)\n\n", id, time.Since(start).Seconds())
	}
	if *md {
		return experiments.WriteMarkdownReport(out, "CORP reproduction report", figs)
	}
	printCacheStats(out)
	return nil
}

// printCacheStats surfaces the workload snapshot cache's counters after a
// figure sweep, so CI logs show whether runs actually shared generations.
func printCacheStats(out io.Writer) {
	st := corp.WorkloadCacheCounters()
	if st.Hits == 0 && st.Misses == 0 {
		return
	}
	fmt.Fprintf(out, "workload cache: %d hits, %d misses, %d evictions, %d entries, %.1f MB\n",
		st.Hits, st.Misses, st.Evictions, st.Entries, float64(st.Bytes)/1e6)
}

// runBenchJSON runs the perf suite (optionally restricted to benches whose
// name contains filter) and writes the snapshot file.
func runBenchJSON(out io.Writer, path string, quick bool, filter string) error {
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", time.Now().Format("2006-01-02"))
	}
	snap := perf.SuiteFiltered(quick, filter)
	snap.Date = time.Now().Format("2006-01-02")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bench snapshot: %w", err)
	}
	defer f.Close()
	if err := snap.WriteJSON(f); err != nil {
		return fmt.Errorf("bench snapshot: %w", err)
	}
	for _, r := range snap.Results {
		fmt.Fprintf(out, "%-28s %12.1f ns/op %8d allocs/op %10d B/op\n",
			r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
	}
	if st := snap.WorkloadCache; st != nil {
		fmt.Fprintf(out, "workload cache: %d hits, %d misses, %d evictions\n",
			st.Hits, st.Misses, st.Evictions)
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	return nil
}

// runBenchDiff loads two snapshots and fails on kernel regressions.
func runBenchDiff(out io.Writer, spec string, tol float64) error {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		return fmt.Errorf("bench-diff: want \"old.json,new.json\", got %q", spec)
	}
	snaps := make([]perf.Snapshot, 2)
	for i, path := range parts {
		f, err := os.Open(strings.TrimSpace(path))
		if err != nil {
			return fmt.Errorf("bench-diff: %w", err)
		}
		s, err := perf.ReadSnapshot(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("bench-diff %s: %w", path, err)
		}
		snaps[i] = s
	}
	report, err := perf.Diff(snaps[0], snaps[1], tol)
	fmt.Fprint(out, report)
	return err
}
