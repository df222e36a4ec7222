// Command tracegen emits synthetic Google-trace-like workloads.
//
// Usage:
//
//	tracegen [flags]
//
//	-n        number of short-lived jobs (default 300)
//	-seed     generator seed (default 1)
//	-format   json | csv (default json)
//	-o        output file (default stdout)
//	-span     arrival span in slots (default 60)
//	-duration mean duration in slots (default 6)
//
// Example:
//
//	tracegen -n 300 -format csv -o workload.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	n := fs.Int("n", 300, "number of short-lived jobs")
	seed := fs.Int64("seed", 1, "generator seed")
	format := fs.String("format", "json", "output format: json or csv")
	out := fs.String("o", "", "output file (default stdout)")
	span := fs.Int("span", 60, "arrival span in slots")
	duration := fs.Int("duration", 6, "mean duration in slots")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (flags stop at the first non-flag word)", fs.Arg(0))
	}

	jobs, err := trace.GenerateShortJobs(trace.Config{
		Seed:         *seed,
		NumJobs:      *n,
		ArrivalSpan:  *span,
		MeanDuration: *duration,
	})
	if err != nil {
		return err
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "json":
		return trace.WriteJSON(w, jobs)
	case "csv":
		return trace.WriteCSV(w, jobs)
	default:
		return fmt.Errorf("unknown format %q (json or csv)", *format)
	}
}
