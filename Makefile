# Development targets for the CORP reproduction. `make check` is the
# gate CI (and contributors) run before merging.

GO ?= go

.PHONY: check farm-smoke fmt vet cross build test selectors fma-off race scale-smoke fuzz-smoke bench bench-figs profile-scale

# The tests that keep a perf "win" from silently changing results ride
# `test`: every quick figure series of both profiles must hash to the
# digests in internal/experiments/testdata/figure_golden.json
# (TestFigureGolden) and be bit-identical with the workload snapshot cache
# on vs off (TestWorkloadCacheEquivalence). So does the surface gate
# (TestInternalSurfaceReachable, root package): an exported identifier under
# internal/ that no figure, CLI, example or bench workload reaches fails
# the build of record. Nothing here gates on timing:
# whether a run got slower is the repo benchmark's question (`go run
# ./bench`, bench/README.md), answered with alternating parent/change runs.
check: fmt vet cross build test selectors fma-off race farm-smoke scale-smoke

# gofmt -l prints unformatted files; fail loudly if there are any.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" ; echo "$$out" ; exit 1 ; fi

vet:
	$(GO) vet ./...

# cross is the only thing that compiles the !amd64 side of the assembly
# kernels (internal/cpufeat's constant-false features, the _noasm stubs):
# cross-vet type-checks every file an arm64 build would use, and vet's
# asmdecl pass checks each .s against its Go declaration.
cross:
	GOARCH=arm64 $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# selectors fails when a -run or -fuzz pattern this Makefile or the CI
# workflow names matches no test (`go test -list` per alternative and
# package), so renaming a test cannot silently empty a step.
selectors:
	GO=$(GO) sh scripts/check-selectors.sh Makefile .github/workflows/ci.yml

# fma-off reruns the exponential's and the DNN kernels' tests with the Go
# runtime told the CPU has no FMA. math.FMA then takes its exact software
# path inside fmath.Exp (the plain-Go tier) while the assembly tier, which
# asks CPUID itself, keeps its VFMADD — and the two must still agree on
# every lane. math.Exp does change under this switch (its amd64 assembly
# reads it), so the fmath-vs-math.Exp comparison detects that and skips.
fma-off:
	GODEBUG=cpu.fma=off $(GO) test -count=1 ./internal/fmath ./internal/dnn

# The race subset covers the packages with real concurrency: the parallel
# sweep runner, the shared workload-snapshot cache, the DNN's shared
# training state, the scheduler's per-kind training fan-out
# (TestTrainKindsRunsKindsConcurrently holds all three kinds in flight at
# once; TestCorpRefreshWorkerEquivalence trains them concurrently at
# Workers 4 and refreshes from the networks they wrote), and the farm
# dispatcher/worker pair (leases, heartbeats, and result submission race
# by design). A run has one fan-out: CORP's three
# resource kinds training the shared brain on goroutines of their own. In
# internal/sim the equivalence suites run CORP at Workers 2, 4 and
# GOMAXPROCS against the reference slot loop (oracle_test.go, entered
# through newRunState), so that fan-out runs under the detector inside
# whole runs (TestCoreEquivalenceParallel, TestRunWorkerCountEquivalence,
# TestSpanFastForwardWorkersAndCores). Every other phase is one serial
# pass and has nothing to race.
# -short skips the heavyweight single-threaded determinism tests (they add
# minutes under the race detector and no concurrency coverage).
# internal/sim alone runs ~10 minutes on a one-core box, right at go
# test's default -timeout; raise it so a loaded machine cannot flake the
# gate.
race:
	$(GO) test -race -short -timeout 30m ./internal/sim ./internal/workload ./internal/dnn ./internal/scheduler ./internal/farm

# farm-smoke builds the corpfarm/corpfarmd pair and runs a localhost
# mini-campaign (one figure plus the faulted extension figure) through two
# spawned corpfarmd worker processes — the cheapest end-to-end proof that
# the HTTP work-pull protocol, process spawning, and positional result
# assembly work outside the test harness.
farm-smoke:
	@mkdir -p bin
	$(GO) build -o bin/corpfarm ./cmd/corpfarm
	$(GO) build -o bin/corpfarmd ./cmd/corpfarmd
	./bin/corpfarm -addr 127.0.0.1:0 -quick -local 0 -spawn 2 -figs fig06,ext-faults

# scale-smoke runs the short-horizon scale-profile smoke tests explicitly:
# one 5000-PM / 20000-VM RCCR burst at a truncated horizon, calm
# (TestScaleProfileSmoke: every telemetry slot aliases the table rows) and
# under crashes, surges and long jobs (TestScaleChurnSmoke: rows patched,
# dense long-job placement), production sim.Run compared bit-for-bit with
# the recompute-telemetry oracle (the same run with the periodic resident
# tables dropped) and the path counters asserted. They also ride the plain
# `go test ./...` tier; the named target keeps the 5k-PM path visible as
# its own CI step.
scale-smoke:
	$(GO) test -count=1 -run 'TestScaleProfileSmoke|TestScaleChurnSmoke' ./internal/sim

# fuzz-smoke gives each fuzz target ten seconds of mutation beyond the seed
# corpus plain `go test` replays: the owned exponential against math.Exp,
# the three assembly-vs-Go kernel oracles (DNN layers, the sigmoid alone,
# the fit scan), the suspect index's r-th-candidate pick against the flat
# scan, the event queue's place-arming dedup, the three trace
# readers (never panic, accepted input round-trips) and the farm's spec
# keys (stable across the wire). (go test -fuzz takes one package and one
# target per run.)
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzExp$$' -fuzztime $(FUZZTIME) ./internal/fmath
	$(GO) test -run '^$$' -fuzz '^FuzzDNNKernels$$' -fuzztime $(FUZZTIME) ./internal/dnn
	$(GO) test -run '^$$' -fuzz '^FuzzSigmoidKernel$$' -fuzztime $(FUZZTIME) ./internal/dnn
	$(GO) test -run '^$$' -fuzz '^FuzzFitScanKernel$$' -fuzztime $(FUZZTIME) ./internal/scheduler
	$(GO) test -run '^$$' -fuzz '^FuzzSuspectSelect$$' -fuzztime $(FUZZTIME) ./internal/scheduler
	$(GO) test -run '^$$' -fuzz '^FuzzArmPlaceDedup$$' -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzReadTrace$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzRunSpecKeys$$' -fuzztime $(FUZZTIME) ./internal/farm

# profile-scale captures pprof CPU+heap profiles of one warm scale-profile
# run. The workload, its resident tables and (for CORP) its pretraining
# history are built outside the timer, so B/op and allocs/op are the run's
# own, but the profiles still contain that set-up:
# the calm 20000-VM unit by default, `make profile-scale
# SCALE_BENCH=BenchmarkScaleRCCRChurn` for the churned fleet,
# `SCALE_BENCH=BenchmarkScaleCORP` for the paper's own scheme on it (minutes,
# not seconds: the recipe sets the CORP_SCALE=1 that unit is gated on, which
# `make bench` does not). Inspect with `go tool pprof cpu-scale.pprof`. This
# is where every scale-profile optimisation starts; see EXPERIMENTS.md.
SCALE_BENCH ?= BenchmarkScaleRCCR
profile-scale:
	CORP_SCALE=1 $(GO) test -run '^$$' -bench '^$(SCALE_BENCH)$$' -benchtime 1x -timeout 60m \
		-cpuprofile cpu-scale.pprof -memprofile mem-scale.pprof ./internal/sim

# bench runs every in-package benchmark under internal/ once: kernels, small
# runs and the two RCCR scale units (the root package's figure benches are
# bench-figs). Narrow it the way any Go benchmark is narrowed, e.g.
# `go test -run '^$' -bench TableII -count 5 -benchmem ./internal/dnn`.
BENCHTIME ?= 2s
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) ./internal/...

# bench-figs regenerates every figure once — the end-to-end sweep suite.
# The root package's BenchmarkFigures has one sub-benchmark per registry ID
# (`corpbench -list`); `go test -run '^$' -bench 'Figures/fig08$' -benchtime
# 1x .` regenerates one.
bench-figs:
	$(GO) test -bench . -benchtime 1x ./...
