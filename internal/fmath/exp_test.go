package fmath

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// expBits are outputs of the FMA branch of Go 1.24's amd64 math.Exp, as
// float64 bit patterns. Exp must return them on every host and under any
// GODEBUG setting: this is the table that still runs where math.Exp itself
// is not comparable.
var expBits = []struct{ x, want uint64 }{
	{0x0, 0x3ff0000000000000},                // 0 -> 1
	{0x8000000000000000, 0x3ff0000000000000}, // -0 -> 1
	{0x3ff0000000000000, 0x4005bf0a8b145769}, // 1 -> e
	{0xbff0000000000000, 0x3fd78b56362cef38}, // -1
	{0x3fe0000000000000, 0x3ffa61298e1e069c}, // 0.5
	{0x408041a7da2024b6, 0x6ed6a09e667f3bf5}, // 520.206959010239 (fmaProbe)
	{0x4085e00000000000, 0x7f0d945df4f8ec8e}, // 700
	{0xc085e00000000000, 0x00d14f2b0fb9307f}, // -700
	{0x40862b7ced916873, 0x7fe69fcfd73b0c55}, // 709.436: the last finite stretch
	{0x40862b7ef9db22d1, 0x7ff0000000000000}, // 709.437: k rounds to 1024, +Inf as in the assembly
	{0x40862e42fefa39ef, 0x7ff0000000000000}, // 709.782712893384, the overflow threshold
	{0x40862e42fefa39f0, 0x7ff0000000000000}, // its successor
	{0xc086233333333333, 0x000ff15b469edf89}, // -708.4: subnormal, two-step scale
	{0xc0874910d52d3051, 0x1},                // -745.1332191019411 -> 5e-324
	{0xc0874910d52d3052, 0x0},                // -745.1332191019412 -> 0
	{0x1, 0x3ff0000000000000},                // 5e-324 -> 1
	{0x8000000000000001, 0x3ff0000000000000}, // -5e-324 -> 1
	{0x7ff0000000000000, 0x7ff0000000000000}, // +Inf
	{0xfff0000000000000, 0x0},                // -Inf -> 0
	{0x7ff8000000000001, 0x7ff8000000000001}, // NaN comes back, payload and all
	{0xfff4000000000002, 0xfff4000000000002},
	{0xc1d7d78400000000, 0x0}, // -1.6e9: log2e*x is past int32
	{0xfe37e43c8800759c, 0x0}, // -1e300
}

func TestExpKnownBits(t *testing.T) {
	for _, c := range expBits {
		if got := math.Float64bits(Exp(math.Float64frombits(c.x))); got != c.want {
			t.Errorf("Exp(%v) = %#x, want %#x", math.Float64frombits(c.x), got, c.want)
		}
	}
}

// fmaProbe is an input on which the two branches of amd64 math.Exp differ
// (…3bf5 with FMA, …3bf6 without).
const fmaProbe = 520.206959010239

// replaysMathExp reports whether math.Exp here is the function Exp replays
// (amd64, on its FMA branch) and, if not, why.
func replaysMathExp() (ok bool, why string) {
	if runtime.GOARCH != "amd64" {
		return false, "math.Exp on " + runtime.GOARCH + " is not the amd64 assembly Exp replays"
	}
	if math.Float64bits(math.Exp(fmaProbe)) != 0x6ed6a09e667f3bf5 {
		return false, "math.Exp is on its non-FMA branch (no FMA, or GODEBUG=cpu.fma=off): it differs from Exp by design"
	}
	return true, ""
}

func TestExpMatchesMathExp(t *testing.T) {
	if ok, why := replaysMathExp(); !ok {
		t.Skip(why)
	}
	mismatches := 0
	check := func(x float64) {
		got, want := Exp(x), math.Exp(x)
		if math.Float64bits(got) != math.Float64bits(want) {
			if mismatches++; mismatches <= 10 {
				t.Errorf("Exp(%v [%#x]) = %v [%#x], math.Exp %v [%#x]", x, math.Float64bits(x),
					got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	for _, c := range expBits {
		check(math.Float64frombits(c.x))
	}
	// Ties of the exponent rounding: x = (n+½)·ln 2 puts log2e*x next to a
	// half-integer, from below the underflow band to past overflow.
	for n := -1100; n <= 1100; n++ {
		x := (float64(n) + 0.5) * math.Ln2
		check(x)
		check(math.Nextafter(x, math.Inf(1)))
		check(math.Nextafter(x, math.Inf(-1)))
	}
	rng := rand.New(rand.NewSource(17))
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	for i := 0; i < n; i++ {
		check(math.Float64frombits(rng.Uint64()))
		check((2*rng.Float64() - 1) * 760)
		check(700 + 12*rng.Float64())  // the overflow band
		check(-700 - 50*rng.Float64()) // subnormal results, then underflow
		check(rng.NormFloat64() * 3)   // where a sigmoid's arguments live
	}
	if mismatches > 10 {
		t.Errorf("%d mismatches in all", mismatches)
	}
}

// FuzzExp holds Exp to math.Exp's bits where math.Exp is the function it
// replays, and to math.Exp within two ulps anywhere else (below amd64's
// early +Inf, which other ports do not share).
func FuzzExp(f *testing.F) {
	for _, c := range expBits {
		f.Add(c.x)
	}
	exact, _ := replaysMathExp()
	f.Fuzz(func(t *testing.T, bits uint64) {
		x := math.Float64frombits(bits)
		got, want := Exp(x), math.Exp(x)
		switch {
		case exact:
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Exp(%v) = %#x, math.Exp %#x", x, math.Float64bits(got), math.Float64bits(want))
			}
		case math.IsNaN(x):
			if !math.IsNaN(got) {
				t.Fatalf("Exp(NaN) = %v", got)
			}
		case x < 709.4:
			if d := int64(math.Float64bits(got)) - int64(math.Float64bits(want)); d < -2 || d > 2 {
				t.Fatalf("Exp(%v) = %v, math.Exp %v: %d ulps apart", x, got, want, d)
			}
		}
	})
}
