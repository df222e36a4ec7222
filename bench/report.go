package main

import (
	"fmt"
	"io"
	"strings"
)

func printEnv(w io.Writer, e env) {
	fmt.Fprintf(w, "bench: nproc %d, GOMAXPROCS %d, %s %s, cpu %q\n", e.NProc, e.GOMAXPROCS, e.GoVersion, e.GOARCH, e.CPUModel)
	fmt.Fprintf(w, "bench: seed %d, shape %s, %g s of warm units per workload (at least %d)\n", e.Seed, e.Shape, e.Seconds, minWarmUnits)
	fmt.Fprintf(w, "bench: load shape: %s — these are not arrival-rate results\n", e.LoadShape)
}

func formatReading(r reading) string {
	if strings.HasPrefix(r.Note, "omitted") {
		return r.Note
	}
	s := fmt.Sprintf("%.6g %s", r.Value, r.Unit)
	if r.Q3 != 0 {
		s += fmt.Sprintf("  (n %d, min %.6g, q1 %.6g, q3 %.6g)", r.N, r.Min, r.Q1, r.Q3)
	} else if r.N > 0 {
		s += fmt.Sprintf("  (n %d)", r.N)
	}
	if r.Note != "" {
		s += "  [" + r.Note + "]"
	}
	return s
}

// printMetrics prints the readings in registry order (every reading is
// registered: report.put and its siblings refuse any other name).
func printMetrics(w io.Writer, defs []metricDef, got map[string]reading) {
	for _, d := range defs {
		if r, ok := got[d.Name]; ok {
			fmt.Fprintf(w, "  %-34s %-9s %s\n", d.Name, d.Kind, formatReading(r))
		}
	}
}

// printReport is a one-workload run's human-readable output (standard
// error; standard output carries only the result line).
func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "%s: seed %d, shape %s, trace %d, %d units attempted, %d failed, digest %.12s, %.1f s\n",
		rep.Workload, rep.Seed, rep.Shape, rep.Trace, rep.Attempted, rep.Failed, rep.Digest, rep.WallS)
	defs := endToEnd
	if rep.Trace == 1 {
		defs = perLayer
	}
	printMetrics(w, defs, rep.Metrics)
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

func printWorkload(w io.Writer, res workloadResult) {
	fmt.Fprintf(w, "%s — %s\n", res.Name, res.Why)
	fmt.Fprintf(w, " end to end (digest %.12s, %d units, %d failed):\n", res.Digest, res.Attempted, res.Failed)
	printMetrics(w, endToEnd, res.EndToEnd)
	fmt.Fprintf(w, " per layer:\n")
	printMetrics(w, perLayer, res.PerLayer)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}
