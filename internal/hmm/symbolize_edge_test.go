package hmm

import (
	"testing"
)

// Edge cases for the symbolizer: degenerate (constant) histories, series
// shorter than one window, and near-zero correction magnitudes.

func TestSymbolizerConstantHistory(t *testing.T) {
	hist := []float64{42, 42, 42, 42, 42}
	sym, err := NewSymbolizer(hist)
	if err != nil {
		t.Fatalf("NewSymbolizer: %v", err)
	}
	t1, t2 := sym.Thresholds()
	if t1 != 42 || t2 != 42 {
		t.Fatalf("degenerate thresholds (%v, %v), want (42, 42)", t1, t2)
	}
	// The level sits exactly on the collapsed band: ≤ t1 → valley.
	if got := sym.SymbolForLevel(42); got != Valley {
		t.Fatalf("SymbolForLevel(42) = %v, want Valley", got)
	}
	if got := sym.SymbolForLevel(43); got != Peak {
		t.Fatalf("SymbolForLevel(43) = %v, want Peak", got)
	}
	if mag := sym.CorrectionMagnitude(); mag != 0 {
		t.Fatalf("CorrectionMagnitude = %v, want 0 for constant history", mag)
	}
	// Zero magnitude and collapsed band edges: corrections are no-ops
	// (modulo the zero floor).
	for _, next := range []Symbol{Peak, Center, Valley} {
		if got := sym.CorrectToward(30, next); got != 30 {
			t.Fatalf("CorrectToward(30, %v) = %v, want 30", next, got)
		}
	}
	if got := sym.CorrectToward(-1, Center); got != 0 {
		t.Fatalf("CorrectToward floors at zero, got %v", got)
	}
}

func TestObserveShorterThanWindow(t *testing.T) {
	sym := &Symbolizer{Min: 0, Mean: 5, Max: 10}
	short := []float64{1, 2, 3}
	if obs := sym.ObserveLevels(short, 6); obs != nil {
		t.Fatalf("ObserveLevels on short series = %v, want nil", obs)
	}
	if means := WindowMeans(short, 6); means != nil {
		t.Fatalf("WindowMeans on short series = %v, want nil", means)
	}
	// Append variants must leave dst untouched.
	dst := make([]Symbol, 0, 4)
	if got := sym.AppendObserveLevels(dst, short, 6); len(got) != 0 {
		t.Fatalf("AppendObserveLevels appended %d symbols to short series", len(got))
	}
	fdst := make([]float64, 0, 4)
	if got := AppendWindowMeans(fdst, short, 6); len(got) != 0 {
		t.Fatalf("AppendWindowMeans appended %d means to short series", len(got))
	}
	// Empty series behaves the same way.
	if obs := sym.ObserveLevels(nil, 6); obs != nil {
		t.Fatalf("ObserveLevels(nil) = %v, want nil", obs)
	}
}

func TestCorrectTowardNearZeroMagnitude(t *testing.T) {
	// Nearly-degenerate low side: the conservative min(h−m, m−l) picks the
	// tiny side, so corrections barely move the estimate.
	sym := &Symbolizer{Min: 10, Mean: 10 + 1e-12, Max: 50}
	eps := sym.Mean - sym.Min // ~1e-12 after rounding
	if mag := sym.CorrectionMagnitude(); mag != eps {
		t.Fatalf("CorrectionMagnitude = %v, want %v", mag, eps)
	}
	t1, _ := sym.Thresholds()
	pred := 25.0
	// Allow one ulp of slack at magnitude ~25 on top of the tiny step.
	slack := 2 * eps
	down := sym.CorrectToward(pred, Valley)
	if down > pred || pred-down > slack {
		t.Fatalf("CorrectToward valley moved %v -> %v, want shift within %v", pred, down, slack)
	}
	if down < t1 {
		t.Fatalf("CorrectToward valley crossed band edge: %v < t1=%v", down, t1)
	}
	up := sym.CorrectToward(pred, Peak)
	if up < pred || up-pred > slack {
		t.Fatalf("CorrectToward peak moved %v -> %v, want shift within %v", pred, up, slack)
	}
	if got := sym.CorrectToward(pred, Center); got != pred {
		t.Fatalf("CorrectToward center = %v, want %v untouched", got, pred)
	}
}
