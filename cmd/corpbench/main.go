// Command corpbench regenerates the paper's tables and figures as text
// series.
//
// Usage:
//
//	corpbench [flags]
//
//	-fig        figure id, or "all" for every one in this order: tableII,
//	            fig06 fig07 fig08 fig09 fig10 (cluster), fig11 fig12 fig13
//	            fig14 (EC2), ablations, ext-strategies, ext-packk,
//	            ext-mixed, ext-oracle, ext-faults
//	-seed       workload seed (default 1)
//	-quick      small cluster and 3-point sweeps (default true)
//	-workers    per-kind training goroutines per simulation, at most 3
//	            (0 = auto from the shared budget, 1 = serial); results
//	            identical at any count
//	-progress   print per-batch sweep progress to stderr
//	-list       print the figure ids, one per line in that order, and exit
//	-md         render the output as a Markdown report
//	-cpuprofile write a pprof CPU profile of the run to the given file
//	-memprofile write a pprof heap profile at exit to the given file
//
// Examples:
//
//	corpbench -fig fig06
//	corpbench -fig all -quick=false     # full paper-scale run (slow)
//	corpbench -fig fig06 -cpuprofile cpu.out
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro"
	"repro/internal/experiments"
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
	workers := fs.Int("workers", 0, "per-kind training goroutines per simulation, at most 3; results identical at any count (0 = auto, 1 = serial)")
	progress := fs.Bool("progress", false, "print per-batch sweep progress to stderr")
	list := fs.Bool("list", false, "print the available figure ids and exit")
	md := fs.Bool("md", false, "render the output as a Markdown report")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (flags stop at the first non-flag word)", fs.Arg(0))
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

	if *list {
		for _, id := range corp.FigureIDs() {
			fmt.Fprintln(out, id)
		}
		return nil
	}

	opts := corp.Options{Seed: *seed, Quick: *quick, Workers: *workers}
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
