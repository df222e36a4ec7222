package perf

import (
	"bytes"
	"strings"
	"testing"
)

func snap(results ...Result) Snapshot {
	return Snapshot{Date: "2026-08-06", GoVersion: "go1.24.0", GOARCH: "amd64", Results: results}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := snap(
		Result{Name: "dnn/forward-tableII", NsPerOp: 2500.5, Iterations: 100000},
		Result{Name: "predict/corp-observe", NsPerOp: 80000, AllocsPerOp: 0, BytesPerOp: 0, Iterations: 1000},
	)
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Date != s.Date || got.GoVersion != s.GoVersion || len(got.Results) != 2 {
		t.Fatalf("roundtrip = %+v", got)
	}
	if got.Results[0] != s.Results[0] {
		t.Errorf("result 0 = %+v, want %+v", got.Results[0], s.Results[0])
	}
}

func TestReadSnapshotRejectsGarbage(t *testing.T) {
	if _, err := ReadSnapshot(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestDiffPassesWithinTolerance(t *testing.T) {
	old := snap(Result{Name: "dnn/train-sample-tableII", NsPerOp: 5000})
	new := snap(Result{Name: "dnn/train-sample-tableII", NsPerOp: 5400}) // +8%
	report, err := Diff(old, new, 0.10)
	if err != nil {
		t.Fatalf("8%% regression failed the 10%% gate: %v\n%s", err, report)
	}
	if !strings.Contains(report, "dnn/train-sample-tableII") {
		t.Errorf("report missing bench name:\n%s", report)
	}
}

func TestDiffFailsOnKernelRegression(t *testing.T) {
	old := snap(Result{Name: "dnn/train-sample-tableII", NsPerOp: 5000})
	new := snap(Result{Name: "dnn/train-sample-tableII", NsPerOp: 6000}) // +20%
	if _, err := Diff(old, new, 0.10); err == nil {
		t.Error("20% kernel regression passed the 10% gate")
	}
}

// TestDiffSkipsDNNNsGateAcrossKernelTiers: a snapshot captured on the
// AVX2 tier against one captured on the plain-Go tier is a machine
// difference, not a regression — the dnn/* ns gate stands down and says
// why, while the hmm/* gate and the dnn/* alloc gate stay armed.
func TestDiffSkipsDNNNsGateAcrossKernelTiers(t *testing.T) {
	old := snap(Result{Name: "dnn/train-sample-tableII", NsPerOp: 2000}, Result{Name: "hmm/viterbi", NsPerOp: 900})
	old.DNNKernel = "avx2"
	new := snap(Result{Name: "dnn/train-sample-tableII", NsPerOp: 4500}, Result{Name: "hmm/viterbi", NsPerOp: 910})
	new.DNNKernel = "generic"
	report, err := Diff(old, new, 0.10)
	if err != nil {
		t.Fatalf("dnn/* ns-gated across kernel tiers: %v", err)
	}
	if !strings.Contains(report, `old "avx2", new "generic"`) {
		t.Errorf("report does not say why dnn/* is ungated:\n%s", report)
	}
	new.Results[1].NsPerOp = 1200
	if _, err := Diff(old, new, 0.10); err == nil {
		t.Error("hmm regression passed because the DNN kernels differ")
	}
	new.Results[1].NsPerOp = 910
	new.Results[0].AllocsPerOp = 1
	if _, err := Diff(old, new, 0.10); err == nil {
		t.Error("dnn alloc growth passed because the DNN kernels differ")
	}
	new.Results[0].AllocsPerOp = 0
	new.DNNKernel = "avx2"
	if _, err := Diff(old, new, 0.10); err == nil {
		t.Error("same-tier dnn regression passed the gate")
	}
}

func TestDiffFailsOnKernelAllocGrowth(t *testing.T) {
	old := snap(Result{Name: "dnn/forward-tableII", NsPerOp: 2500, AllocsPerOp: 0})
	new := snap(Result{Name: "dnn/forward-tableII", NsPerOp: 2500, AllocsPerOp: 2})
	if _, err := Diff(old, new, 0.10); err == nil {
		t.Error("alloc growth in a kernel passed the gate")
	}
}

func TestDiffFailsOnHmmRegression(t *testing.T) {
	old := snap(Result{Name: "hmm/baumwelch", NsPerOp: 5000})
	new := snap(Result{Name: "hmm/baumwelch", NsPerOp: 6000}) // +20%
	if _, err := Diff(old, new, 0.10); err == nil {
		t.Error("20% hmm kernel regression passed the 10% gate")
	}
}

func TestDiffFailsOnPredictorAllocGrowth(t *testing.T) {
	// Predictor-level benches are not ns-gated (too noisy) but any allocs
	// growth is deterministic and must fail.
	old := snap(Result{Name: "predict/corp-refresh", NsPerOp: 100000, AllocsPerOp: 0})
	new := snap(Result{Name: "predict/corp-refresh", NsPerOp: 100000, AllocsPerOp: 5})
	if _, err := Diff(old, new, 0.10); err == nil {
		t.Error("alloc growth in predict/corp-refresh passed the gate")
	}
	old = snap(Result{Name: "baseline/refresh", NsPerOp: 10000, AllocsPerOp: 0})
	new = snap(Result{Name: "baseline/refresh", NsPerOp: 10000, AllocsPerOp: 3})
	if _, err := Diff(old, new, 0.10); err == nil {
		t.Error("alloc growth in baseline/refresh passed the gate")
	}
}

func TestDiffExemptsPoolAllocNoise(t *testing.T) {
	// Engine benches run goroutine pools whose alloc counts are
	// timing-dependent; they are recorded but not alloc-gated.
	old := snap(Result{Name: "engine/refresh-fleet200-w1", NsPerOp: 5e6, AllocsPerOp: 50000})
	new := snap(Result{Name: "engine/refresh-fleet200-w1", NsPerOp: 5e6, AllocsPerOp: 51000})
	if _, err := Diff(old, new, 0.10); err != nil {
		t.Errorf("engine alloc noise failed the diff: %v", err)
	}
}

func TestDiffIgnoresNonKernelRegression(t *testing.T) {
	// End-to-end figure benches are recorded but too noisy to gate.
	old := snap(Result{Name: "figure/fig06-quick", NsPerOp: 1e9})
	new := snap(Result{Name: "figure/fig06-quick", NsPerOp: 2e9})
	if _, err := Diff(old, new, 0.10); err != nil {
		t.Errorf("non-kernel regression failed the diff: %v", err)
	}
}

func TestDiffReportsNewAndGoneBenches(t *testing.T) {
	old := snap(Result{Name: "dnn/gone", NsPerOp: 100})
	new := snap(Result{Name: "dnn/fresh", NsPerOp: 100})
	report, err := Diff(old, new, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, "new") || !strings.Contains(report, "gone") {
		t.Errorf("report missing new/gone markers:\n%s", report)
	}
}

// TestSuiteQuickRunsKernels smoke-tests the harness itself: the quick
// suite must produce the kernel benches with allocation-free results.
func TestSuiteQuickRunsKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("runs benchmarks")
	}
	s := Suite(true)
	want := map[string]bool{
		"dnn/forward-tableII":      false,
		"dnn/sigmoid-tableII":      false,
		"dnn/train-sample-tableII": false,
		"dnn/train-batch-tableII":  false,
		"predict/corp-observe":     false,
		"predict/corp-refresh":     false,
		"baseline/refresh":         false,
		"hmm/viterbi":              false,
		"hmm/baumwelch":            false,
		"hmm/correct":              false,
	}
	for _, r := range s.Results {
		if _, ok := want[r.Name]; ok {
			want[r.Name] = true
		}
		if (strings.HasPrefix(r.Name, "dnn/") || strings.HasPrefix(r.Name, "hmm/")) && r.AllocsPerOp != 0 {
			t.Errorf("%s allocates %d/op", r.Name, r.AllocsPerOp)
		}
		if r.NsPerOp <= 0 {
			t.Errorf("%s ns/op = %v", r.Name, r.NsPerOp)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("suite missing %s", name)
		}
	}
}
