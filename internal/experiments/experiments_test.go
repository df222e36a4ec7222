package experiments

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/metrics"
)

func TestTableII(t *testing.T) {
	f := TableII()
	if f.ID != "tableII" || len(f.Series) == 0 {
		t.Fatalf("TableII = %+v", f)
	}
	if s := f.SeriesByLabel("P_th"); s == nil || s.Y[0] != 0.95 {
		t.Error("P_th entry wrong")
	}
	if f.SeriesByLabel("nope") != nil {
		t.Error("unknown label should be nil")
	}
}

func TestFigureStringAndOrdering(t *testing.T) {
	f := &Figure{ID: "x", Title: "demo", XLabel: "a", YLabel: "b"}
	s1 := &metrics.Series{Label: "hi"}
	s1.Append(1, 0.9)
	s2 := &metrics.Series{Label: "lo"}
	s2.Append(1, 0.4)
	f.Series = append(f.Series, s1, s2)
	f.Notes = append(f.Notes, "a note")
	out := f.String()
	for _, want := range []string{"x: demo", "hi", "lo", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("String missing %q:\n%s", want, out)
		}
	}
	if err := f.CheckOrdering(true, "hi", "lo"); err != nil {
		t.Errorf("descending ordering should pass: %v", err)
	}
	if err := f.CheckOrdering(true, "lo", "hi"); err == nil {
		t.Error("wrong ordering should fail")
	}
	if err := f.CheckOrdering(false, "lo", "hi"); err != nil {
		t.Errorf("ascending ordering should pass: %v", err)
	}
	if err := f.CheckOrdering(true, "missing"); err == nil {
		t.Error("missing series should fail")
	}
}

func TestSortSeriesByX(t *testing.T) {
	s := &metrics.Series{Label: "s", X: []float64{3, 1, 2}, Y: []float64{30, 10, 20}}
	f := &Figure{Series: []*metrics.Series{s}}
	sortSeriesByX(f)
	if s.X[0] != 1 || s.Y[0] != 10 || s.X[2] != 3 || s.Y[2] != 30 {
		t.Errorf("sorted = %v / %v", s.X, s.Y)
	}
}

func TestOptionsShapes(t *testing.T) {
	quick := Options{Quick: true}
	if got := quick.jobCounts(); len(got) != 3 {
		t.Errorf("quick jobCounts = %v", got)
	}
	full := Options{}
	if got := full.jobCounts(); len(got) != 6 || got[5] != 300 {
		t.Errorf("full jobCounts = %v", got)
	}
	pms, vms := full.clusterSize()
	if pms != 50 || vms != 200 {
		t.Errorf("full cluster = %d/%d", pms, vms)
	}
	ec2 := Options{Profile: cluster.ProfileEC2}
	pms, vms = ec2.clusterSize()
	if pms != 30 || vms != 30 {
		t.Errorf("ec2 cluster = %d/%d", pms, vms)
	}
	if len(quick.seeds(0)) != 2 || len(full.seeds(0)) != 3 || len(full.seeds(1)) != 4 {
		t.Error("seed replication counts wrong")
	}
	if len(riskLevels(true)) != 3 || len(riskLevels(false)) != 6 {
		t.Error("risk level counts wrong")
	}
	if len(confidenceLevels(true)) != 3 || len(confidenceLevels(false)) != 5 {
		t.Error("confidence level counts wrong")
	}
}

// TestQuickFig06Shape runs the real Fig. 6 harness in quick mode and
// asserts the paper's ordering (the headline claim of the reproduction).
func TestQuickFig06Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	f, err := Fig06PredictionError(Options{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f.String())
	if err := f.CheckOrdering(false, "CORP", "RCCR", "CloudScale", "DRA"); err != nil {
		t.Errorf("Fig. 6 ordering: %v", err)
	}
}

// TestQuickFig07Shape asserts the utilization ordering per Fig. 7.
func TestQuickFig07Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	f, err := Fig07Utilization(Options{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f.String())
	if err := f.CheckOrdering(true, "CORP/overall", "RCCR/overall", "CloudScale/overall", "DRA/overall"); err != nil {
		t.Errorf("Fig. 7 ordering: %v", err)
	}
	// Storage utilization below CPU for the paper's Fig. 11 note.
	corpCPU := f.SeriesByLabel("CORP/CPU")
	corpSTO := f.SeriesByLabel("CORP/STO")
	if corpCPU.MeanY() <= corpSTO.MeanY() {
		t.Errorf("storage utilization %0.3f should sit below CPU %0.3f",
			corpSTO.MeanY(), corpCPU.MeanY())
	}
}

// TestQuickFig10Shape asserts CORP's overhead is the highest (Fig. 10).
func TestQuickFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	f, err := Fig10Overhead(Options{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f.String())
	corp := f.SeriesByLabel("CORP")
	for _, other := range []string{"RCCR", "CloudScale", "DRA"} {
		if s := f.SeriesByLabel(other); s.Y[0] >= corp.Y[0] {
			t.Errorf("%s latency %.1f should be below CORP %.1f", other, s.Y[0], corp.Y[0])
		}
	}
}

func TestWriteMarkdown(t *testing.T) {
	f := TableII()
	var b strings.Builder
	if err := f.WriteMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"## tableII", "| series |", "| P_th |", "0.95"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
	var rb strings.Builder
	if err := WriteMarkdownReport(&rb, "demo", []*Figure{f}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rb.String(), "# demo") {
		t.Error("report header missing")
	}
	// Empty figure renders a placeholder.
	var eb strings.Builder
	if err := (&Figure{ID: "e", Title: "t"}).WriteMarkdown(&eb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eb.String(), "no data") {
		t.Error("empty figure placeholder missing")
	}
}

// TestQuickExtensionMixed exercises the mixed-workload extension runner.
func TestQuickExtensionMixed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	f, err := ExtensionMixedWorkload(Options{Seed: 2, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f.String())
	if s := f.SeriesByLabel("cluster util"); s == nil || len(s.Y) != 2 {
		t.Fatalf("cluster util series missing or wrong length")
	}
	// Long jobs add served demand: cluster utilization must not drop.
	s := f.SeriesByLabel("cluster util")
	if s.Y[1] < s.Y[0]-0.01 {
		t.Errorf("cluster utilization fell with long jobs: %v", s.Y)
	}
}
