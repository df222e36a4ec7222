package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs the seconds-scale shape of all four workloads, untraced
// and traced, in this process, and checks what the full benchmark promises:
// every metric named once per applicable workload with a unit, no failed
// unit, golden digests met, and a well-formed trace.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads; skipped under -short")
	}
	out := t.TempDir()
	opts := runOpts{shape: "smoke", seed: goldenSeed, minWarm: 2, outDir: out}
	for _, w := range workloads("smoke") {
		untraced, err := measure(w, opts)
		if err != nil {
			t.Fatalf("%s untraced: %v", w.name, err)
		}
		traced, err := driveLayers(w, opts)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		res := merge(w, untraced, traced)
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct %v, %d of %d units failed: %v", w.name, res.Correct, res.Failed, res.Attempted, res.Problems)
		}
		if got := res.EndToEnd["fail_ratio"].Value; got != 0 {
			t.Errorf("%s: fail_ratio = %v, want 0", w.name, got)
		}
		if got := res.EndToEnd["sim_digest_ok"].Value; got != 1 {
			t.Errorf("%s: sim_digest_ok = %v, want 1", w.name, got)
		}
		if n := res.EndToEnd["run_wall_s"].N; n != opts.minWarm {
			t.Errorf("%s: run_wall_s over %d warm units, want %d", w.name, n, opts.minWarm)
		}
		checkReadings(t, w.name, "end-to-end", endToEnd, res.EndToEnd)
		checkReadings(t, w.name, "per-layer", perLayer, res.PerLayer)
		for _, d := range endToEnd[:gatedEndToEnd] {
			if res.EndToEnd[d.Name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0 (a bounded metric may never read 0)", w.name, d.Name, res.EndToEnd[d.Name].Value)
			}
		}

		// The driver's result lines carry exactly BENCHMARK.json's lists.
		if got, want := len(untraced.line().Metrics), gatedEndToEnd; got != want {
			t.Errorf("%s: untraced result line has %d metrics, want %d", w.name, got, want)
		}
		for name := range traced.line().Metrics {
			if d, ok := findMetric(perLayer, name); !ok || d.Merged {
				t.Errorf("%s: traced result line carries %q", w.name, name)
			}
		}

		if err := checkSpans(traced.spans); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		var tf traceFile
		data, err := os.ReadFile(filepath.Join(out, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatalf("%s trace file: %v", w.name, err)
		}
		if len(tf.Spans) == 0 || len(tf.Spans) != len(tf.SelfNS) {
			t.Errorf("%s trace file: %d spans, %d self times", w.name, len(tf.Spans), len(tf.SelfNS))
		}
		if err := checkSpans(tf.Spans); err != nil {
			t.Errorf("%s trace file: %v", w.name, err)
		}
	}
}

// checkReadings asserts the registry and the emitted readings agree: every
// applicable metric present with its unit, nothing else present.
func checkReadings(t *testing.T, workload, what string, defs []metricDef, got map[string]reading) {
	t.Helper()
	for _, d := range defs {
		r, ok := got[d.Name]
		switch {
		case d.appliesTo(workload) && !ok:
			t.Errorf("%s: %s metric %s missing", workload, what, d.Name)
		case !d.appliesTo(workload) && ok:
			t.Errorf("%s: %s metric %s emitted but does not apply", workload, what, d.Name)
		case ok && (r.Unit == "" || r.Unit != d.Unit):
			t.Errorf("%s: %s has unit %q, want %q", workload, d.Name, r.Unit, d.Unit)
		}
	}
	for name := range got {
		if !metricName.MatchString(name) {
			t.Errorf("%s: metric name %q is malformed", workload, name)
		}
		if _, ok := findMetric(defs, name); !ok {
			t.Errorf("%s: %s metric %s is not in the registry", workload, what, name)
		}
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the registry and the workload
// list, so the contract file and the program can not drift apart.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", spec.RunSeconds, defaultSeconds)
	}
	full := workloads("full")
	if len(spec.Workloads) != len(full) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(full))
	}
	for i, w := range full {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, at most 200 allowed", w.name, len(w.why))
		}
	}
	if len(spec.EndToEnd) != gatedEndToEnd {
		t.Fatalf("%d end_to_end metrics, want %d", len(spec.EndToEnd), gatedEndToEnd)
	}
	for i, d := range endToEnd[:gatedEndToEnd] {
		got := spec.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, the registry %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	var emitted []metricDef
	for _, d := range perLayer {
		if !d.Merged {
			emitted = append(emitted, d)
		}
	}
	if len(spec.PerLayer) != len(emitted) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the registry", len(spec.PerLayer), len(emitted))
	}
	for i, d := range emitted {
		got := spec.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, the registry %s %s %s", i, got, d.Name, d.Unit, d.Better)
		}
		if !metricName.MatchString(d.Name) {
			t.Errorf("per_layer name %q is malformed", d.Name)
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4),
// which is what the acceptance check computes spreads with.
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %v %v %v, want 1 2 3", q1, med, q3)
	}
}

// TestVerdict covers the four outcomes -compare can print for a row.
func TestVerdict(t *testing.T) {
	d := metricDef{Name: "run_wall_s", Better: "lower", Bound: 0.10}
	tight := func(v float64) reading { return reading{Value: v, N: 3, Q1: v * 0.99, Q3: v * 1.01} }
	wide := func(v float64) reading { return reading{Value: v, N: 3, Q1: v * 0.9, Q3: v * 1.1} }
	for _, c := range []struct {
		a, b reading
		want string
	}{
		{tight(1), tight(1.05), "ok"},
		{tight(1), tight(1.2), "regressed"},
		{tight(1), tight(0.8), "improved"},
		{tight(1), wide(1.2), "unresolved"},
	} {
		if got, _, _ := verdict(d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%v → %v) = %s, want %s", c.a.Value, c.b.Value, got, c.want)
		}
	}
	higher := metricDef{Name: "vm_slots_per_s", Better: "higher", Bound: 0.10}
	if got, _, _ := verdict(higher, tight(100), tight(80)); got != "regressed" {
		t.Errorf("a 20%% throughput drop reads %s, want regressed", got)
	}
}
