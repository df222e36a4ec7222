// Command bench is the repo benchmark: four end-to-end workloads, named
// metrics with regression bounds, and a traced layer drive. BENCHMARK.json
// at the repo root is its contract; bench/README.md is its manual.
//
//	go run ./bench -seed 1                 every workload, untraced then traced
//	go run ./bench -workload W -trace 0    one untraced run, result line on stdout
//	go run ./bench -compare A.json B.json  apply the bounds to two result files
//
// Load shape: closed loop, one unit in flight, generated from this process.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long the warm-unit
// loop of one untraced run measures.
const defaultSeconds = 10

// minWarmUnits is the least number of warm units behind every median.
const minWarmUnits = 3

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type flags struct {
	workload     string
	seed         int64
	seconds      float64
	trace        int
	shape        string
	outDir       string
	detail       string
	updateGolden bool
	compare      bool
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var f flags
	fs.StringVar(&f.workload, "workload", "", "run this one workload and print the driver's result line (default: every workload, each in a child process)")
	fs.Int64Var(&f.seed, "seed", goldenSeed, "workload seed: feeds sim.Config.Seed, scheduler.Config.Seed and faults.Config.Seed")
	fs.Float64Var(&f.seconds, "seconds", defaultSeconds, "how long the warm-unit loop measures")
	fs.IntVar(&f.trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced layer drive, per-layer metrics")
	fs.StringVar(&f.shape, "shape", "full", "workload sizes: full, or smoke (seconds-scale)")
	fs.StringVar(&f.outDir, "out", filepath.Join("bench", "out"), "directory for result.json and trace-<workload>.json")
	fs.StringVar(&f.detail, "detail", "", "with -workload: also write the run's full report to this file")
	fs.BoolVar(&f.updateGolden, "update-golden", false, "rewrite bench/golden.json from this run instead of checking against it (seed 1 only, from the repo root)")
	fs.BoolVar(&f.compare, "compare", false, "compare two result files: bench -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if f.compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if f.shape != "full" && f.shape != "smoke" {
		return fmt.Errorf("unknown shape %q (want full or smoke)", f.shape)
	}
	if f.trace != 0 && f.trace != 1 {
		return fmt.Errorf("-trace is 0 or 1, not %d", f.trace)
	}
	if f.updateGolden && f.seed != goldenSeed {
		return fmt.Errorf("-update-golden pins seed %d, not %d", goldenSeed, f.seed)
	}
	if err := os.MkdirAll(f.outDir, 0o755); err != nil {
		return err
	}
	if f.workload != "" {
		return runOne(f, stdout, stderr)
	}
	return runAll(f, stdout, stderr)
}

// runWorkload performs one run of one workload in this process.
func runWorkload(f flags) (*report, error) {
	w := findWorkload(f.shape, f.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", f.workload)
	}
	opts := runOpts{
		shape: f.shape, seed: f.seed, seconds: f.seconds, minWarm: minWarmUnits,
		setupBudget: time.Second, outDir: f.outDir, skipGolden: f.updateGolden,
	}
	if f.trace == 1 {
		return driveLayers(w, opts)
	}
	return measure(w, opts)
}

// resultLine is the last line of a one-workload run's standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line projects a report onto BENCHMARK.json's metric lists: the gated
// end-to-end metrics of an untraced run, or every per-layer metric of a
// traced one. A per-layer metric the workload does not exercise reads 0.
func (r *report) line() resultLine {
	out := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]lineMetric{}}
	defs := endToEnd[:gatedEndToEnd]
	if r.Trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		if d.Merged {
			continue
		}
		out.Metrics[d.Name] = lineMetric{Value: r.Metrics[d.Name].Value, Unit: d.Unit}
	}
	return out
}

func runOne(f flags, stdout, stderr io.Writer) error {
	rep, err := runWorkload(f)
	if err != nil {
		return err
	}
	printReport(stderr, rep)
	if f.detail != "" {
		if err := writeJSON(f.detail, rep); err != nil {
			return err
		}
	}
	data, err := json.Marshal(rep.line())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", data)
	return err
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// env is the environment header of the result file and the report.
type env struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOARCH     string  `json:"goarch"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	Shape      string  `json:"shape"`
	Seconds    float64 `json:"seconds"`
	LoadShape  string  `json:"load_shape"`
	// WarmUnits is the number of warm units behind each workload's medians.
	WarmUnits map[string]int `json:"warm_units"`
	TotalWall float64        `json:"total_wall_s"`
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

// workloadResult is one workload's merged untraced and traced runs.
type workloadResult struct {
	Name      string             `json:"name"`
	Why       string             `json:"why"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Digest    string             `json:"digest"`
	Problems  []string           `json:"problems,omitempty"`
	EndToEnd  map[string]reading `json:"end_to_end"`
	PerLayer  map[string]reading `json:"per_layer"`
}

// resultFile is bench/out/result.json, the input of -compare.
type resultFile struct {
	Env       env              `json:"env"`
	Workloads []workloadResult `json:"workloads"`
}

// merge folds a workload's untraced and traced reports into one result and
// computes the metrics that need both.
func merge(w *workloadSpec, untraced, traced *report) workloadResult {
	res := workloadResult{
		Name: w.name, Why: w.why,
		Correct:   untraced.Correct && traced.Correct && untraced.Digest == traced.Digest,
		Attempted: untraced.Attempted + traced.Attempted,
		Failed:    untraced.Failed + traced.Failed,
		Digest:    untraced.Digest,
		Problems:  append(append([]string(nil), untraced.Problems...), traced.Problems...),
		EndToEnd:  untraced.Metrics,
		PerLayer:  traced.Metrics,
	}
	if untraced.Digest != traced.Digest {
		res.Problems = append(res.Problems, "the untraced and traced runs disagree on the unit's digest")
	}
	wall := untraced.Metrics["run_wall_s"]
	res.PerLayer["bench.warm_units"] = reading{Value: float64(wall.N), Unit: "count", Kind: "host"}
	// The traced unit's wall over the untraced median: what recording
	// spans around the unit costs. Spans sit outside the program, so this
	// should read 1 within noise.
	if wall.Value > 0 {
		res.PerLayer["bench.trace_overhead_ratio"] = reading{Value: traced.TracedUnitS / wall.Value, Unit: "ratio", Kind: "host"}
	}
	return res
}

// runAll runs every workload, one at a time, each run in its own child
// process so that peak RSS and process-wide caches belong to one workload.
func runAll(f flags, stdout, stderr io.Writer) error {
	began := time.Now()
	self, err := os.Executable()
	if err != nil {
		return err
	}
	e := env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH, CPUModel: cpuModel(),
		Seed: f.seed, Shape: f.shape, Seconds: f.seconds,
		LoadShape: "closed loop, 1 unit in flight",
		WarmUnits: map[string]int{},
	}
	printEnv(stdout, e)
	var out resultFile
	golden := map[string]goldenEntry{}
	failed := false
	for _, w := range workloads(f.shape) {
		var reps [2]*report
		for trace := 0; trace <= 1; trace++ {
			cf := f
			cf.workload, cf.trace = w.name, trace
			cf.detail = filepath.Join(f.outDir, fmt.Sprintf("report-%s-%d.json", w.name, trace))
			fmt.Fprintf(stdout, "\n== %s (trace %d) ==\n", w.name, trace)
			rep, err := runChild(self, cf, stderr)
			if err != nil {
				return fmt.Errorf("%s (trace %d): %w", w.name, trace, err)
			}
			reps[trace] = rep
		}
		res := merge(w, reps[0], reps[1])
		printWorkload(stdout, res)
		failed = failed || !res.Correct
		e.WarmUnits[w.name] = reps[0].Metrics["run_wall_s"].N
		out.Workloads = append(out.Workloads, res)
		entry := goldenEntry{Digest: res.Digest, Exact: map[string]float64{}}
		for _, name := range exactPerLayer {
			if r, ok := res.PerLayer[name]; ok {
				entry.Exact[name] = r.Value
			}
		}
		golden[w.name] = entry
	}
	e.TotalWall = time.Since(began).Seconds()
	out.Env = e
	path := filepath.Join(f.outDir, "result.json")
	if err := writeJSON(path, out); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nwrote %s and %s/trace-<workload>.json; total wall %.1f s\n", path, f.outDir, e.TotalWall)
	if f.updateGolden {
		if failed {
			return errors.New("not updating the golden file: a determinism check failed")
		}
		if err := writeGolden(goldenPath, f.shape, golden); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "rewrote %s (%s shape)\n", goldenPath, f.shape)
		return nil
	}
	if failed {
		return errors.New("a workload failed its correctness checks (see problems above)")
	}
	return nil
}

// runChild runs one workload run in a child process and returns its report.
func runChild(self string, f flags, stderr io.Writer) (*report, error) {
	args := []string{
		"-workload", f.workload, "-seed", fmt.Sprint(f.seed), "-seconds", fmt.Sprint(f.seconds),
		"-trace", fmt.Sprint(f.trace), "-shape", f.shape, "-out", f.outDir, "-detail", f.detail,
	}
	if f.updateGolden {
		args = append(args, "-update-golden")
	}
	cmd := exec.Command(self, args...)
	cmd.Stdout = io.Discard
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(f.detail)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", f.detail, err)
	}
	return rep, nil
}
