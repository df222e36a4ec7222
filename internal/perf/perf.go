// Package perf is the repo's performance-trajectory harness: it runs the
// hot-path microbenchmarks (DNN kernels, the CORP observe path, one quick
// end-to-end figure) through testing.Benchmark, snapshots the results as
// JSON (the BENCH_<date>.json artifacts committed at the repo root), and
// diffs two snapshots so CI can fail on kernel regressions. cmd/corpbench
// exposes it via -json and -bench-diff; `make bench` / `make bench-diff`
// wrap both.
package perf

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dnn"
	"repro/internal/experiments"
	"repro/internal/farm"
	"repro/internal/faults"
	"repro/internal/hmm"
	"repro/internal/job"
	"repro/internal/predict"
	"repro/internal/resource"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Result is one benchmark's measurement.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// Snapshot is one BENCH_<date>.json file.
type Snapshot struct {
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
	GOARCH    string `json:"goarch"`
	// MaxProcs records GOMAXPROCS at capture time: the scale/* and
	// engine/* -wmax entries are only meaningful relative to it (on a
	// single-core machine they necessarily match the -w1 entries).
	MaxProcs int `json:"max_procs,omitempty"`
	// DNNKernel records which tier of the DNN layer primitives the
	// capturing machine selected ("avx2" or "generic", see dnn.Kernel): the
	// dnn/* rows time that tier, so Diff only ns-gates them between
	// snapshots that ran the same one.
	DNNKernel string   `json:"dnn_kernel,omitempty"`
	Results   []Result `json:"results"`
	// WorkloadCache records the process-wide snapshot cache's counters
	// over the suite run (reset at suite start), so sharing regressions —
	// a sweep that stops hitting — are visible in the committed JSON.
	WorkloadCache *workload.Stats `json:"workload_cache,omitempty"`
	// Tier records the two-tier forecaster's counters over the
	// engine/refresh20k-tier bench (full suite only): how many per-kind
	// forecasts the cheap first tier served versus escalated to the DNN.
	// A snapshot whose hit share collapses means the tier stopped
	// engaging and the tier bench is timing the full DNN path.
	Tier *TierStats `json:"tier,omitempty"`
	// Farm records the corpfarm dispatcher's counters over the
	// farm/campaign-quick-w2 bench (full suite only). A snapshot whose
	// dedup hits collapse means the content-addressed job keys stopped
	// matching and the farm re-ran identical work.
	Farm *FarmStats `json:"farm,omitempty"`
}

// TierStats is the two-tier forecaster's hit/escalation tally.
type TierStats struct {
	Hits        int `json:"hits"`
	Escalations int `json:"escalations"`
}

// FarmStats is the farm dispatcher's work-accounting tally over one
// distributed quick campaign.
type FarmStats struct {
	Jobs      int64 `json:"jobs"`
	DedupHits int64 `json:"dedup_hits"`
	Retries   int64 `json:"retries"`
}

// nsGates mark the benches whose ns/op regressions fail Diff, each prefix
// with its own tolerance multiplier over Diff's base tol: the DNN and HMM
// compute kernels and the trace generators at the base tolerance; the
// isolated slot-observe benches at 2× — they walk a 20000-VM fleet per op,
// so box weather moves them more than a µs kernel, while the regression
// they guard (the table rows silently degrading to recomputation) is
// a 13× cliff no tolerance hides; the span-fastforward A/B pair likewise
// at 2× (the off entry keeps the escape hatch honest); the scale/* end-to-
// end single runs at a wider band — they are the tentpole numbers this
// repo's perf work protects, but a whole end-to-end simulation on a shared
// box needs headroom for cache/GC weather a microbench doesn't see (the
// band tightened from 3.5× as the runs got shorter). Other end-to-end
// benches (figure runs, farm campaigns) are recorded but not gated.
var nsGates = []struct {
	prefix string
	tolMul float64
}{
	{"dnn/", 1},
	{"hmm/", 1},
	{"trace/", 1},
	{"sim/slot-observe-", 2},
	{"sim/span-fastforward-", 2},
	{"scale/", 3},
}

// nsGateTol returns the gate tolerance for name, or 0 if ungated.
func nsGateTol(name string, base float64) float64 {
	for _, g := range nsGates {
		if strings.HasPrefix(name, g.prefix) {
			return base * g.tolMul
		}
	}
	return 0
}

// allocExemptPrefixes are excluded from the allocs/op-growth gate: the
// end-to-end runs and the pooled engine benches have timing-dependent
// allocation counts (goroutine scheduling, map growth), so only the
// deterministic micro-benches are held to "allocs never grow". The cold
// quick-run bench regenerates its workload every op (that is its point),
// so only the warm (snapshot-sharing) path is alloc-gated.
// sim/*-wmax runs shard across goroutines, so their alloc counts are
// timing-dependent too, as are the farm/* end-to-end campaigns (HTTP
// server, worker goroutines, JSON transport).
var allocExemptPrefixes = []string{"figure/", "scale/", "engine/", "sim/run-quick-cold", "sim/event-core-wmax", "farm/"}

// allocSlack is the permitted allocs/op growth for an alloc-gated bench:
// 0.1% of the old count, rounded down. Allocation-free kernels (and
// anything under 1000 allocs/op) keep an exact never-grow gate, but an
// end-to-end bench with thousands of allocs/op can flutter by ±1 from
// one-time setup allocations amortized over a run-dependent b.N — that
// flutter is not a regression.
func allocSlack(base int64) int64 { return base / 1000 }

func hasAnyPrefix(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// tableIINet builds the paper's Table II predictor network {Δ, 50, 50, 1}.
func tableIINet(seed int64) (*dnn.Network, []float64, []float64) {
	net, err := dnn.New(dnn.Config{LayerSizes: []int{12, 50, 50, 1}, Seed: seed})
	if err != nil {
		panic(err)
	}
	in := make([]float64, 12)
	for i := range in {
		in[i] = float64(i) / 12
	}
	return net, in, []float64{0.5}
}

// Suite runs every tracked benchmark and returns a snapshot (Date is left
// for the caller to stamp). quick keeps the kernel and engine
// micro-benches — they are sub-second — but skips the end-to-end benches
// (the figure run and the scale-profile single runs), which dominate wall
// time.
func Suite(quick bool) (snap Snapshot) { return SuiteFiltered(quick, "") }

// SuiteFiltered is Suite restricted to benches whose name contains any of
// the comma-separated filter terms (empty runs everything). Shared setup —
// workload preparation for the core and scale bench groups — is skipped
// when no bench in the group matches, so e.g. `corpbench -bench-filter
// scale/sim-scale5k` pays only the scale profile's own preparation; that
// is what makes profiling a single bench (`make profile-scale`) practical,
// and `-bench-filter scale/,sim/span` compares two groups in one run.
func SuiteFiltered(quick bool, filter string) (snap Snapshot) {
	snap = Snapshot{GoVersion: runtime.Version(), GOARCH: runtime.GOARCH, MaxProcs: runtime.GOMAXPROCS(0), DNNKernel: dnn.Kernel()}
	// Track snapshot-cache effectiveness over this suite run only; the
	// deferred capture lands on the named return after the last bench.
	workload.Default.Reset()
	defer func() {
		st := workload.Default.Stats()
		snap.WorkloadCache = &st
	}()
	var terms []string
	for _, f := range strings.Split(filter, ",") {
		if f = strings.TrimSpace(f); f != "" {
			terms = append(terms, f)
		}
	}
	matchesAny := func(names ...string) bool {
		if len(terms) == 0 {
			return true
		}
		for _, n := range names {
			for _, f := range terms {
				if strings.Contains(n, f) {
					return true
				}
			}
		}
		return false
	}
	add := func(name string, fn func(b *testing.B)) {
		if !matchesAny(name) {
			return
		}
		// Micro-benches (everything but the end-to-end figure and scale
		// runs) take best-of-3: scheduling noise on shared machines is
		// one-sided, so the min is the robust estimator and keeps the
		// 10% Diff gate from tripping on a noisy-neighbor sample.
		reps := 3
		// The 20k-fleet refresh trio pays a multi-second fleet build and
		// warmup per rep; like the end-to-end benches it runs once.
		if strings.HasPrefix(name, "figure/") || strings.HasPrefix(name, "scale/") ||
			strings.HasPrefix(name, "farm/") || strings.HasPrefix(name, "engine/refresh20k") {
			reps = 1
		}
		var best testing.BenchmarkResult
		for i := 0; i < reps; i++ {
			r := testing.Benchmark(fn)
			if i == 0 || r.T.Nanoseconds()*int64(best.N) < best.T.Nanoseconds()*int64(r.N) {
				best = r
			}
		}
		snap.Results = append(snap.Results, Result{
			Name:        name,
			NsPerOp:     float64(best.T.Nanoseconds()) / float64(best.N),
			AllocsPerOp: best.AllocsPerOp(),
			BytesPerOp:  best.AllocedBytesPerOp(),
			Iterations:  best.N,
		})
	}

	add("dnn/forward-tableII", func(b *testing.B) {
		net, in, _ := tableIINet(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := net.Forward(in); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("dnn/forward-batch-tableII", func(b *testing.B) {
		// One 256-row batched forward over the Table II shape: the batched
		// refresh engine's kernel. ns/op is per batch (÷256 for per-row);
		// it is 256 single-row layer passes per layer, so the win over 256
		// Forwards is modest on this shape, but the kernel must stay
		// allocation-free and never regress.
		net, in, _ := tableIINet(1)
		const rows = 256
		ins := make([]float64, rows*len(in))
		for r := 0; r < rows; r++ {
			copy(ins[r*len(in):], in)
		}
		scratch := net.NewBatchScratch(rows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := net.ForwardBatchInto(scratch, ins); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("dnn/sigmoid-tableII", func(b *testing.B) {
		// A 50-wide layer of fan-in 1: a Table II hidden layer's fifty
		// activations with the multiply/add work all but gone, so the row
		// times the sigmoid of the tier Snapshot.DNNKernel names
		// (BenchmarkSigmoidTableII in internal/dnn prints both tiers).
		net, err := dnn.New(dnn.Config{LayerSizes: []int{1, 50}, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		in := []float64{0.5}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := net.Forward(in); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("dnn/train-sample-tableII", func(b *testing.B) {
		net, in, target := tableIINet(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := net.TrainSample(in, target); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("dnn/train-batch-tableII", func(b *testing.B) {
		// A 6-sample batch, the CORP online shape (1 new + 5 replays).
		net, in, _ := tableIINet(1)
		const batch = 6
		ins := make([]float64, batch*len(in))
		tgts := make([]float64, batch)
		for s := 0; s < batch; s++ {
			copy(ins[s*len(in):], in)
			tgts[s] = 0.5
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := net.TrainBatch(ins, tgts); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("predict/corp-observe", func(b *testing.B) {
		brain, err := predict.NewCorpBrain(predict.CorpConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		capacity := resource.Vector{8, 16, 100}
		p := predict.NewCorpPredictor(brain, capacity, 1)
		// Warm the history past the cold-start threshold so every
		// iteration exercises the full train path.
		for i := 0; i < 32; i++ {
			p.Observe(resource.Vector{4, 8, 50})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Observe(resource.Vector{4, 8, 50})
		}
	})
	add("predict/corp-refresh", func(b *testing.B) {
		brain, err := predict.NewCorpBrain(predict.CorpConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		capacity := resource.Vector{8, 16, 100}
		p := predict.NewCorpPredictor(brain, capacity, 1)
		var outcomes []predict.ErrorSample
		// Warm past cold start and through one full history window so the
		// HMM correction path is live and all scratch is at capacity.
		for i := 0; i < 128; i++ {
			p.Observe(refreshVector(i))
			p.Predict()
			outcomes = p.AppendOutcomes(outcomes[:0])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Observe(refreshVector(i))
			p.Predict()
			outcomes = p.AppendOutcomes(outcomes[:0])
		}
	})
	add("predict/two-tier-refresh", func(b *testing.B) {
		// The corp-refresh shape with the two-tier forecaster enabled and
		// slow-moving telemetry, so the cheap first tier serves in steady
		// state: the per-VM refresh cost this PR's tier exists to cut.
		brain, err := predict.NewCorpBrain(predict.CorpConfig{Seed: 1, TierEnabled: true})
		if err != nil {
			b.Fatal(err)
		}
		capacity := resource.Vector{8, 16, 100}
		p := predict.NewCorpPredictor(brain, capacity, 1)
		var outcomes []predict.ErrorSample
		for i := 0; i < 128; i++ {
			p.Observe(tierVector(i))
			p.Predict()
			outcomes = p.AppendOutcomes(outcomes[:0])
		}
		if hits, _ := p.TierCounters(); hits == 0 {
			b.Fatal("two-tier bench: tier never served during warmup")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Observe(tierVector(i))
			p.Predict()
			outcomes = p.AppendOutcomes(outcomes[:0])
		}
	})
	add("baseline/refresh", func(b *testing.B) {
		capacity := resource.Vector{8, 16, 100}
		preds := []predict.Predictor{
			predict.NewRCCRPredictor(predict.RCCRConfig{}, capacity),
			predict.NewCloudScalePredictor(predict.CloudScaleConfig{}, capacity),
			predict.NewDRAPredictor(predict.DRAConfig{}, capacity),
		}
		var outcomes []predict.ErrorSample
		for i := 0; i < 128; i++ {
			for _, p := range preds {
				p.Observe(refreshVector(i))
				p.Predict()
				outcomes = p.(predict.OutcomeAppender).AppendOutcomes(outcomes[:0])
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, p := range preds {
				p.Observe(refreshVector(i))
				p.Predict()
				outcomes = p.(predict.OutcomeAppender).AppendOutcomes(outcomes[:0])
			}
		}
	})
	add("hmm/viterbi", func(b *testing.B) {
		m := hmm.NewPaperModel(1)
		obs := correctObs()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := m.Viterbi(obs); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("hmm/baumwelch", func(b *testing.B) {
		m := hmm.NewPaperModel(1)
		obs := correctObs()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The hmmCorrect refit shape: 5 EM iterations, warm-started
			// from the previous parameters.
			if _, _, err := m.BaumWelch(obs, 5, 1e-5); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("hmm/correct", func(b *testing.B) {
		bench := newCorrectBench()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bench.step(i)
		}
	})
	// Workload-generation benches: the redundant cost the snapshot cache
	// exists to eliminate. trace/* are ns-gated; workload/snapshot-build
	// is the cache's miss cost (residents + short jobs + long-job guard,
	// history stays lazy) at the quick-figure shape.
	add("trace/generate-residents", func(b *testing.B) {
		caps := make([]resource.Vector, 200)
		for i := range caps {
			caps[i] = resource.Vector{4, 16, 180}
		}
		cfg := trace.ResidentConfig{Seed: 1, Horizon: 300, ReservedShare: 0.6}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := trace.GenerateResidents(cfg, caps, job.ID(1_000_000)); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("trace/generate-shortjobs", func(b *testing.B) {
		cfg := trace.Config{Seed: 1, NumJobs: 300, ArrivalSpan: 60}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := trace.GenerateShortJobs(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("workload/snapshot-build", func(b *testing.B) {
		p := quickWorkloadParams()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := workload.Build(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Quick-figure-shaped single runs, cold (workload regenerated inside
	// every run, the -workload-cache=off path) vs warm (a shared prepared
	// snapshot, what every run after the first costs inside a sweep).
	// DRA keeps the scheduler side cheap so the generation share — the
	// cost the cache removes — is visible in the cold/warm ratio.
	add("sim/run-quick-cold", func(b *testing.B) {
		prev := workload.Default.Enabled()
		workload.Default.SetEnabled(false)
		defer workload.Default.SetEnabled(prev)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(quickRunConfig()); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("sim/run-quick-warm", warmRunBench(quickRunConfig()))
	// The same warm quick run with the sharded executor at full width
	// (run-quick-warm is the serial side): a dense little world, so the
	// ratio is the shard's net cost/savings where there is little to shard.
	wide := quickRunConfig()
	wide.Workers = runtime.GOMAXPROCS(0)
	add("sim/event-core-wmax", warmRunBench(wide))
	// The quiet-heavy run the span fast-forward exists for: a short arrival
	// burst, then a drain hundreds of slots long with nothing in flight.
	// ns-gated so the time-axis fast path cannot silently regress.
	add("sim/span-fastforward-on", warmRunBench(spanBenchConfig()))
	// Isolated telemetry-phase benches over the 20000-VM scale fleet:
	// the periodic-table rows every slot of a periodic population starts
	// from (aliased here — an idle fleet has nothing to patch) versus the
	// per-VM recomputation a non-periodic population runs (identical
	// outputs — the table-equivalence tests). Both are ns- and alloc-gated:
	// the aliased rows are the per-slot floor of the scale/sim-scale5k-*
	// runs and must stay allocation-free.
	if matchesAny("sim/slot-observe-tables-20k", "sim/slot-observe-recompute-20k") {
		snapshot, err := workload.Build(observeBenchParams())
		if err != nil {
			panic(fmt.Sprintf("perf: build observe bench workload: %v", err))
		}
		observeBench := func(disableTables bool) func(b *testing.B) {
			return func(b *testing.B) {
				ob, err := sim.NewObserveBench(snapshot, disableTables)
				if err != nil {
					b.Fatal(err)
				}
				if !disableTables && !ob.UsingTables() {
					b.Fatal("observe bench: tables unavailable")
				}
				// One warm pass builds the lazy tables off the timer.
				ob.Run(1)
				b.ReportAllocs()
				b.ResetTimer()
				sink := 0.0
				for i := 0; i < b.N; i++ {
					sink += ob.Run(1)
				}
				_ = sink
			}
		}
		add("sim/slot-observe-tables-20k", observeBench(false))
		add("sim/slot-observe-recompute-20k", observeBench(true))
	}
	// Engine micro-benches: one slot's Observe fan-out and one window's
	// Refresh pass over a 200-VM CORP fleet, serial vs all cores. The
	// fleet shapes mirror the scale profile so the scale/* end-to-end
	// entries decompose into these.
	for _, eng := range []struct {
		suffix  string
		workers int
	}{{"w1", 1}, {"wmax", runtime.GOMAXPROCS(0)}} {
		eng := eng
		add("engine/observe-fleet200-"+eng.suffix, func(b *testing.B) {
			sched, unused := engineFleet(b, eng.workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sched.ObserveAll(unused, nil)
			}
		})
		add("engine/refresh-fleet200-"+eng.suffix, func(b *testing.B) {
			sched, unused := engineFleet(b, eng.workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Each Refresh needs fresh observations or the dirty-skip
				// makes later iterations free; feed them off the timer.
				b.StopTimer()
				sched.ObserveAll(unused, nil)
				b.StartTimer()
				sched.Refresh()
			}
		})
		// One slot's Observe fan-out at the scale profile's fleet size
		// (20000 VMs) with RCCR's cheap predictors: the per-slot telemetry
		// floor of the scale/sim-scale5k-* end-to-end runs.
		add("engine/scale-observe20k-"+eng.suffix, func(b *testing.B) {
			sched, unused := scaleFleet(b, eng.workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sched.ObserveAll(unused, nil)
			}
		})
	}
	if !quick {
		add("figure/fig06-quick", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Fig06PredictionError(experiments.Options{
					Profile: cluster.ProfileCluster, Seed: 1, Quick: true,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
		// Scale-profile single runs: the tentpole's headline number. The
		// w1/wmax pair shows the intra-run engine's wall-time speedup at
		// this snapshot's MaxProcs (identical figures by construction —
		// see TestRunWorkerCountEquivalence).
		for _, eng := range []struct {
			suffix  string
			workers int
		}{{"w1", 1}, {"wmax", runtime.GOMAXPROCS(0)}} {
			eng := eng
			add("scale/sim-200vm-corp-"+eng.suffix, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := sim.Run(scaleConfig(eng.workers)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		// The event core's headline workload: the scale testbed profile
		// (5000 PMs / 20000 VMs) under a 350k-job burst that holds over
		// 100k short jobs in flight at peak (see EXPERIMENTS.md). The
		// workload is prepared once outside the timer — generation is not
		// what these entries track.
		if matchesAny("scale/sim-scale5k-rccr-w1", "scale/sim-scale5k-rccr-wmax") {
			snapshot, err := sim.PrepareWorkload(scaleProfileConfig(1))
			if err != nil {
				panic(fmt.Sprintf("perf: prepare scale-profile workload: %v", err))
			}
			for _, eng := range []struct {
				suffix  string
				workers int
			}{{"w1", 1}, {"wmax", runtime.GOMAXPROCS(0)}} {
				eng := eng
				add("scale/sim-scale5k-rccr-"+eng.suffix, func(b *testing.B) {
					cfg := scaleProfileConfig(eng.workers)
					cfg.Prepared = snapshot
					for i := 0; i < b.N; i++ {
						if _, err := sim.Run(cfg); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
		// One window's CORP Refresh over the full 20000-VM scale fleet:
		// the batched gather → ForwardBatch → scatter pipeline, alone and
		// with the two-tier forecaster serving the (flat) fleet. First-tier
		// hits skip the DNN+HMM work entirely, so the ratio of the two is
		// the realizable refresh speedup on calm fleets.
		add("engine/refresh20k-batched-w1", refresh20kBench(false, nil, nil))
		var tierHits, tierEscal int
		add("engine/refresh20k-tier-w1", refresh20kBench(true, &tierHits, &tierEscal))
		if tierHits+tierEscal > 0 {
			snap.Tier = &TierStats{Hits: tierHits, Escalations: tierEscal}
		}
		// The full two-profile quick campaign distributed through a real
		// corpfarm dispatcher over HTTP with 1 and 2 local workers: the
		// farm's end-to-end overhead (job serialization, work-pull round
		// trips, JSON result transport, positional assembly) relative to
		// the in-process figure runs. On a multi-core host the w2/w1
		// ratio is the farm's scaling; counters from the w2 run land in
		// Snapshot.Farm so dedup regressions show up in the committed
		// JSON. These run LAST: a campaign churns hundreds of MB of heap
		// through the HTTP/JSON transport, and the GC pacing that leaves
		// behind would perturb the µs- and ms-scale entries above.
		add("farm/campaign-quick-w1", farmCampaignBench(1, nil))
		add("farm/campaign-quick-w2", farmCampaignBench(2, &snap.Farm))
		// The scale fleet under churn — the repo benchmark's
		// rccr-scale5k-churn unit: crashes, surges and long jobs keep the
		// long-job placement column and the patched telemetry rows busy.
		// After everything else: run right before the refresh20k rows it
		// made them read 4–15× their value in three captures out of three
		// (its ~250 MB snapshot stays in the workload cache; the suite's
		// system time tripled), while a multi-second run shrugs off what
		// the farm leaves behind.
		add("scale/sim-scale5k-rccr-churn-w1", warmRunBench(scaleChurnConfig(1)))
	}
	return snap
}

// farmCampaignBench distributes the full two-profile quick campaign
// through a corpfarm dispatcher over loopback HTTP with n in-process
// workers; stats, when non-nil, receives the last iteration's dispatcher
// counters.
func farmCampaignBench(n int, stats **FarmStats) func(b *testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := farm.NewDispatcher(farm.Config{})
			srv := httptest.NewServer(d.Handler())
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, n)
			for w := 0; w < n; w++ {
				worker := &farm.Worker{
					BaseURL: srv.URL, ID: fmt.Sprintf("bench-%d", w),
					Poll: 5 * time.Millisecond, Client: srv.Client(),
				}
				go func() { done <- worker.Serve(ctx) }()
			}
			_, err := experiments.Campaign(experiments.Options{
				Seed: 1, Quick: true, RunBatch: d.RunBatch,
			})
			d.Shutdown()
			for w := 0; w < n; w++ {
				if werr := <-done; werr != nil && err == nil {
					err = werr
				}
			}
			cancel()
			srv.Close()
			if err != nil {
				b.Fatal(err)
			}
			if stats != nil {
				c := d.Counters()
				*stats = &FarmStats{Jobs: c.Jobs, DedupHits: c.DedupHits, Retries: c.Retries}
			}
		}
	}
}

// refresh20kBench builds the 20000-VM CORP fleet, warms it through enough
// observe/refresh cycles that training is live (and, with the tier on,
// that the shadow forecasts have matured and the tier serves), then times
// Refresh alone; each iteration's observations are fed off the timer.
// The counter pointers, when non-nil, receive the fleet's tier tallies
// after the timed loop.
func refresh20kBench(tier bool, hits, escal *int) func(b *testing.B) {
	return func(b *testing.B) {
		cl, err := cluster.New(cluster.Config{Profile: cluster.ProfileScale})
		if err != nil {
			b.Fatal(err)
		}
		scfg := scheduler.Config{Scheme: scheduler.CORP, Seed: 1, Workers: 1}
		// One replay step keeps the (off-timer) per-slot training cost down
		// without changing what Refresh itself does.
		scfg.Corp.ReplaySteps = 1
		scfg.Corp.TierEnabled = tier
		sched, err := scheduler.New(scfg, cl)
		if err != nil {
			b.Fatal(err)
		}
		unused := make([]resource.Vector, len(cl.VMs))
		for v := range unused {
			c := cl.VMs[v].Capacity
			f := 0.3 + 0.4*float64(v%7)/7
			unused[v] = resource.Vector{c[0] * f, c[1] * f * 0.9, c[2] * f * 0.7}
		}
		// Warm past cold start (Δ + window slots) and through enough
		// refresh cycles that the tier's shadow forecasts mature: the
		// telemetry is constant per VM, so persistence is exact and a
		// trusted tier serves the whole fleet.
		for i := 0; i < 48; i++ {
			sched.ObserveAll(unused, nil)
			if i%6 == 5 {
				sched.Refresh()
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sched.ObserveAll(unused, nil)
			b.StartTimer()
			sched.Refresh()
		}
		b.StopTimer()
		if tc, ok := sched.(interface{ TierCounters() (int, int) }); ok && hits != nil && escal != nil {
			*hits, *escal = tc.TierCounters()
			if tier && *hits == 0 {
				b.Fatal("refresh20k tier bench: tier never served")
			}
		}
	}
}

// warmRunBench times sim.Run(cfg) against a snapshot prepared off the
// timer — what every run after the first costs inside a sweep.
func warmRunBench(cfg sim.Config) func(b *testing.B) {
	return func(b *testing.B) {
		snapshot, err := sim.PrepareWorkload(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Prepared = snapshot
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// quickRunConfig is the quick-figure-shaped single run (20 PMs / 60 VMs /
// 300 jobs) the sim/run-quick-* benches time.
func quickRunConfig() sim.Config {
	return sim.Config{
		NumPMs: 20, NumVMs: 60, NumJobs: 300, Seed: 1,
		Scheduler: scheduler.Config{Scheme: scheduler.DRA, Seed: 1},
		Clock:     &sim.VirtualClock{StepMicros: 50},
		Workers:   1,
	}
}

// quickWorkloadParams is the workload the quick run generates, expressed
// directly as cache params for the snapshot-build bench.
func quickWorkloadParams() workload.Params {
	caps := make([]resource.Vector, 60)
	for i := range caps {
		caps[i] = resource.Vector{4, 16, 180}
	}
	return workload.Params{
		VMCaps:    caps,
		Residents: trace.ResidentConfig{Seed: 1, Horizon: 300, ReservedShare: 0.6},
		Jobs:      trace.Config{Seed: 1, NumJobs: 300, ArrivalSpan: 60, VMCapacity: resource.Vector{4, 16, 180}},
	}
}

// spanBenchConfig is the sim/span-fastforward-on run: a 200-VM fleet whose
// 150 short jobs all arrive inside 10 slots and finish early, leaving a
// 400-slot drain where the event queue holds nothing but telemetry and
// refresh ticks — maximal quiescent-span surface.
func spanBenchConfig() sim.Config {
	return sim.Config{
		NumPMs: 50, NumVMs: 200, NumJobs: 150, Seed: 1,
		Warmup: 20, ArrivalSpan: 10, Drain: 400,
		Scheduler: scheduler.Config{Scheme: scheduler.RCCR, Seed: 1},
		Clock:     &sim.VirtualClock{StepMicros: 50},
		Workers:   1,
	}
}

// scaleConfig is the ≥200-VM single-run profile the scale/* benches time.
func scaleConfig(workers int) sim.Config {
	return sim.Config{
		NumPMs: 50, NumVMs: 200, NumJobs: 200, Seed: 1,
		Warmup: 60, ArrivalSpan: 40, Drain: 80,
		Scheduler: scheduler.Config{Scheme: scheduler.CORP, Seed: 1},
		Clock:     &sim.VirtualClock{StepMicros: 50},
		Workers:   workers,
	}
}

// scaleProfileConfig is the scale-testbed single run the
// scale/sim-scale5k-* benches time: the ProfileScale world (5000 PMs /
// 20000 VMs) under a 350k-job RCCR burst. Jobs are deliberately small
// (VMCapacity-scaled well below the real VM carve) and long
// (MeanDuration at the 30-slot short-job cap, arriving over 60 slots),
// so at peak well over 100k short jobs are in flight — the regime the
// event core's sharded executor is for; TestScaleProfileConcurrency
// measures the peak. RCCR keeps the per-VM predictors cheap; CORP's
// per-VM DNNs at 20000 VMs would measure the predictor fleet, not the
// simulator core.
func scaleProfileConfig(workers int) sim.Config {
	cfg := sim.Config{
		Profile: cluster.ProfileScale,
		NumJobs: 350_000, Seed: 1,
		Warmup: 30, ArrivalSpan: 60, Drain: 90,
		Scheduler: scheduler.Config{Scheme: scheduler.RCCR, Seed: 1},
		Clock:     &sim.VirtualClock{StepMicros: 50},
		Workers:   workers,
	}
	cfg.Jobs.MeanDuration = 30
	cfg.Jobs.VMCapacity = resource.Vector{0.5, 2, 8}
	return cfg
}

// scaleChurnConfig is bench/'s rccr-scale5k-churn unit at seed 1: the
// scale profile's fleet and arrival rate over two thirds of its horizon,
// plus VM crashes, resident surges and 2000 long jobs.
func scaleChurnConfig(workers int) sim.Config {
	cfg := scaleProfileConfig(workers)
	cfg.Faults = faults.Config{Seed: 1, VMCrashProb: 5e-4, SurgeProb: 2e-3}
	cfg.LongJobs = 2000
	cfg.NumJobs, cfg.ArrivalSpan, cfg.Drain = 175_000, 30, 60
	return cfg
}

// observeBenchParams is the sim/slot-observe-* fleet: the scale profile's
// 20000 VM capacities with the default resident generator and no short or
// long jobs (the telemetry phase never touches them).
func observeBenchParams() workload.Params {
	cl, err := cluster.New(cluster.Config{Profile: cluster.ProfileScale})
	if err != nil {
		panic(fmt.Sprintf("perf: observe bench cluster: %v", err))
	}
	caps := make([]resource.Vector, len(cl.VMs))
	for i, vm := range cl.VMs {
		caps[i] = vm.Capacity
	}
	return workload.Params{
		VMCaps:    caps,
		Residents: trace.ResidentConfig{Seed: 1, Horizon: 240, ReservedShare: 0.6},
	}
}

// scaleFleet builds the scale profile's 20000-VM RCCR scheduler plus one
// plausible unused-telemetry slot for the engine/scale-observe20k bench.
func scaleFleet(b *testing.B, workers int) (scheduler.Scheduler, []resource.Vector) {
	b.Helper()
	cl, err := cluster.New(cluster.Config{Profile: cluster.ProfileScale})
	if err != nil {
		b.Fatal(err)
	}
	sched, err := scheduler.New(scheduler.Config{Scheme: scheduler.RCCR, Seed: 1, Workers: workers}, cl)
	if err != nil {
		b.Fatal(err)
	}
	unused := make([]resource.Vector, len(cl.VMs))
	for v := range unused {
		c := cl.VMs[v].Capacity
		f := 0.3 + 0.4*float64(v%7)/7
		unused[v] = resource.Vector{c[0] * f, c[1] * f * 0.9, c[2] * f * 0.7}
	}
	return sched, unused
}

// engineFleet builds a 200-VM CORP scheduler with a warmed predictor
// fleet plus a plausible unused-telemetry slot for the engine benches.
func engineFleet(b *testing.B, workers int) (scheduler.Scheduler, []resource.Vector) {
	b.Helper()
	cl, err := cluster.New(cluster.Config{Profile: cluster.ProfileCluster, NumPMs: 50, NumVMs: 200})
	if err != nil {
		b.Fatal(err)
	}
	sched, err := scheduler.New(scheduler.Config{Scheme: scheduler.CORP, Seed: 1, Workers: workers}, cl)
	if err != nil {
		b.Fatal(err)
	}
	unused := make([]resource.Vector, len(cl.VMs))
	for v := range unused {
		c := cl.VMs[v].Capacity
		f := 0.3 + 0.4*float64(v%7)/7
		unused[v] = resource.Vector{c[0] * f, c[1] * f * 0.9, c[2] * f * 0.7}
	}
	// Warm the fleet past the cold-start threshold so every timed
	// iteration exercises the full train/predict path.
	for i := 0; i < 32; i++ {
		sched.ObserveAll(unused, nil)
	}
	return sched, unused
}

// refreshVector is a deterministic, non-constant unused-telemetry slot for
// the per-VM refresh benches: enough variation that the symbolizer
// thresholds are non-degenerate and every correction branch stays live.
func refreshVector(i int) resource.Vector {
	f := 0.35 + 0.25*math.Sin(float64(i)/5) + 0.05*float64(i%7)
	return resource.Vector{8 * f, 16 * f * 0.9, 100 * f * 0.7}
}

// tierVector is slow-moving unused telemetry for the two-tier bench:
// enough drift that history stays non-degenerate, little enough that the
// first tier's persistence forecast stays inside its trust threshold.
func tierVector(i int) resource.Vector {
	f := 0.5 + 0.02*math.Sin(float64(i)/40)
	return resource.Vector{8 * f, 16 * f * 0.9, 100 * f * 0.7}
}

// correctSeries is the hmmCorrect input shape: a full default-length
// history (120 slots) of fluctuating unused amounts.
func correctSeries() []float64 {
	vals := make([]float64, 120)
	for i := range vals {
		vals[i] = 50 + 18*math.Sin(float64(i)/5) + float64(i%7)
	}
	return vals
}

// correctObs symbolizes correctSeries the way hmmCorrect does (window
// means, level thresholds, window 6 → 20 observations).
func correctObs() []hmm.Symbol {
	vals := correctSeries()
	means := hmm.WindowMeans(vals, 6)
	sym, err := hmm.NewSymbolizer(means)
	if err != nil {
		panic(err)
	}
	return sym.ObserveLevels(vals, 6)
}

// correctBench replicates the CorpPredictor.hmmCorrect sequence at the hmm
// package level: symbolize the history into reused scratch, refit every
// 8th call, Viterbi, and the Eq. 17 next-symbol correction.
type correctBench struct {
	vals  []float64
	means []float64
	obs   []hmm.Symbol
	model *hmm.Model
	yhat  float64
}

func newCorrectBench() *correctBench {
	return &correctBench{vals: correctSeries(), model: hmm.NewPaperModel(1), yhat: 55}
}

func (c *correctBench) step(i int) {
	c.means = hmm.AppendWindowMeans(c.means[:0], c.vals, 6)
	sym, err := hmm.MakeSymbolizer(c.means)
	if err != nil {
		panic(err)
	}
	c.obs = sym.AppendObserveLevels(c.obs[:0], c.vals, 6)
	obs := c.obs
	if i%8 == 1 {
		if _, _, err := c.model.BaumWelch(obs, 5, 1e-5); err != nil {
			panic(err)
		}
	}
	path, _, err := c.model.Viterbi(obs)
	if err != nil {
		panic(err)
	}
	next, dist, err := c.model.PredictNextSymbol(path[len(path)-1])
	if err != nil {
		panic(err)
	}
	if dist[next] >= 0.5 {
		c.yhat = sym.CorrectToward(c.yhat, next)
	}
}

// WriteJSON writes the snapshot with stable formatting.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSnapshot parses a snapshot written by WriteJSON.
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return Snapshot{}, fmt.Errorf("perf: read snapshot: %w", err)
	}
	return s, nil
}

// Diff compares two snapshots and returns a human-readable report plus an
// error if any ns-gated bench (see nsGates: kernels and trace generators
// at tol — fractional, e.g. 0.10 for 10% — slot-observe at tol, the
// scale/* single runs at a widened band) regressed in ns/op, or if any
// bench outside the exempt prefixes (end-to-end figure/scale runs and the
// engine benches, whose pool alloc counts are timing-dependent) grew its
// allocs/op beyond allocSlack. Benches present in only one snapshot are
// reported but never fail the diff. Between snapshots whose DNNKernel
// differs the dnn/* rows are reported but not ns-gated (the report says
// so): they time different kernel tiers, not a code change.
func Diff(old, new Snapshot, tol float64) (string, error) {
	if tol <= 0 {
		tol = 0.10
	}
	oldBy := make(map[string]Result, len(old.Results))
	for _, r := range old.Results {
		oldBy[r.Name] = r
	}
	names := make([]string, 0, len(new.Results))
	for _, r := range new.Results {
		names = append(names, r.Name)
	}
	sort.Strings(names)
	newBy := make(map[string]Result, len(new.Results))
	for _, r := range new.Results {
		newBy[r.Name] = r
	}

	var sb strings.Builder
	var failures []string
	kernelsDiffer := old.DNNKernel != new.DNNKernel
	if kernelsDiffer {
		fmt.Fprintf(&sb, "dnn kernel: old %q, new %q: dnn/* ns/op not gated, the two snapshots timed different kernel tiers\n",
			old.DNNKernel, new.DNNKernel)
	}
	fmt.Fprintf(&sb, "%-28s %14s %14s %8s\n", "bench", "old ns/op", "new ns/op", "delta")
	for _, name := range names {
		nr := newBy[name]
		or, ok := oldBy[name]
		if !ok {
			fmt.Fprintf(&sb, "%-28s %14s %14.1f %8s\n", name, "-", nr.NsPerOp, "new")
			continue
		}
		delta := 0.0
		if or.NsPerOp > 0 {
			delta = (nr.NsPerOp - or.NsPerOp) / or.NsPerOp
		}
		fmt.Fprintf(&sb, "%-28s %14.1f %14.1f %+7.1f%%\n", name, or.NsPerOp, nr.NsPerOp, delta*100)
		gateTol := nsGateTol(name, tol)
		if kernelsDiffer && strings.HasPrefix(name, "dnn/") {
			gateTol = 0
		}
		if gateTol > 0 && delta > gateTol {
			failures = append(failures, fmt.Sprintf("%s: ns/op regressed %.1f%% (> %.0f%%)", name, delta*100, gateTol*100))
		}
		if !hasAnyPrefix(name, allocExemptPrefixes) && nr.AllocsPerOp > or.AllocsPerOp+allocSlack(or.AllocsPerOp) {
			failures = append(failures, fmt.Sprintf("%s: allocs/op grew %d → %d", name, or.AllocsPerOp, nr.AllocsPerOp))
		}
	}
	for name := range oldBy {
		if _, ok := newBy[name]; !ok {
			fmt.Fprintf(&sb, "%-28s %14.1f %14s %8s\n", name, oldBy[name].NsPerOp, "-", "gone")
		}
	}
	if old.Tier != nil || new.Tier != nil {
		fmtTier := func(t *TierStats) string {
			if t == nil {
				return "-"
			}
			total := t.Hits + t.Escalations
			if total == 0 {
				return "0 decisions"
			}
			return fmt.Sprintf("%d served / %d escalated (%.1f%% first-tier)",
				t.Hits, t.Escalations, 100*float64(t.Hits)/float64(total))
		}
		fmt.Fprintf(&sb, "two-tier forecaster: old %s, new %s\n", fmtTier(old.Tier), fmtTier(new.Tier))
	}
	if old.Farm != nil || new.Farm != nil {
		fmtFarm := func(f *FarmStats) string {
			if f == nil {
				return "-"
			}
			return fmt.Sprintf("%d jobs / %d dedup hits / %d retries", f.Jobs, f.DedupHits, f.Retries)
		}
		fmt.Fprintf(&sb, "farm campaign: old %s, new %s\n", fmtFarm(old.Farm), fmtFarm(new.Farm))
	}
	if len(failures) > 0 {
		return sb.String(), fmt.Errorf("perf: kernel regression:\n  %s", strings.Join(failures, "\n  "))
	}
	return sb.String(), nil
}
