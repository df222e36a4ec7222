package resource

import (
	"fmt"
	"math"
	"testing"
)

// The per-element loops the written-out Vector methods and folds replaced,
// kept verbatim as references: TestVectorMethodsMatchLoopReference and
// FuzzVectorOps hold every rewritten form to them bit for bit.

func loopAdd(v, o Vector) Vector {
	var out Vector
	for i := range v {
		out[i] = v[i] + o[i]
	}
	return out
}

func loopSub(v, o Vector) Vector {
	var out Vector
	for i := range v {
		out[i] = v[i] - o[i]
	}
	return out
}

func loopScale(v Vector, s float64) Vector {
	var out Vector
	for i := range v {
		out[i] = v[i] * s
	}
	return out
}

func loopMul(v, o Vector) Vector {
	var out Vector
	for i := range v {
		out[i] = v[i] * o[i]
	}
	return out
}

func loopDiv(v, o Vector) Vector {
	var out Vector
	for i := range v {
		out[i] = v[i] / o[i]
	}
	return out
}

func loopMin(v, o Vector) Vector {
	var out Vector
	for i := range v {
		out[i] = min(v[i], o[i])
	}
	return out
}

func loopMax(v, o Vector) Vector {
	var out Vector
	for i := range v {
		out[i] = max(v[i], o[i])
	}
	return out
}

func loopClampNonNegative(v Vector) Vector {
	var out Vector
	for i := range v {
		if v[i] > 0 {
			out[i] = v[i]
		}
	}
	return out
}

func loopClampTo(v, ceiling Vector) Vector {
	var out Vector
	for i := range v {
		out[i] = min(max(v[i], 0), ceiling[i])
	}
	return out
}

func loopFitsIn(v, capacity Vector) bool {
	const eps = 1e-9
	for i := range v {
		if v[i] > capacity[i]+eps {
			return false
		}
	}
	return true
}

func loopNonNegative(v Vector) bool {
	for _, x := range v {
		if !(x >= 0) {
			return false
		}
	}
	return true
}

func loopMaxAcross(vs []Vector) Vector {
	var out Vector
	for _, v := range vs {
		out = loopMax(out, v)
	}
	return out
}

func loopSumAcross(vs []Vector) Vector {
	var out Vector
	for _, v := range vs {
		out = loopAdd(out, v)
	}
	return out
}

// sameBits reports whether a and b agree bit for bit in every component,
// the sign of zero included, where a NaN matches any NaN. IEEE 754 leaves
// open which payload an operation on two NaNs returns, and on amd64 it is
// whichever operand the register allocator made the destination: the loop
// and the written-out SumAcross return different ones of two input NaNs.
// The simulator never carries a NaN (job.Validate rejects them), and no
// output format can show a payload.
func sameBits(a, b Vector) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// vectorMismatch compares every rewritten method on (v, o, s) with its loop
// reference and describes the first disagreement, or returns "".
func vectorMismatch(v, o Vector, s float64) string {
	pairs := []struct {
		name      string
		got, want Vector
	}{
		{"Add", v.Add(o), loopAdd(v, o)},
		{"Sub", v.Sub(o), loopSub(v, o)},
		{"Scale", v.Scale(s), loopScale(v, s)},
		{"Mul", v.Mul(o), loopMul(v, o)},
		{"Div", v.Div(o), loopDiv(v, o)},
		{"Min", v.Min(o), loopMin(v, o)},
		{"Max", v.Max(o), loopMax(v, o)},
		{"ClampNonNegative", v.ClampNonNegative(), loopClampNonNegative(v)},
		{"SubClamp", v.SubClamp(o), loopClampNonNegative(loopSub(v, o))},
		{"ClampTo", v.ClampTo(o), loopClampTo(v, o)},
		{"MaxAcross", MaxAcross([]Vector{v, o, v.Scale(s)}), loopMaxAcross([]Vector{v, o, loopScale(v, s)})},
		{"SumAcross", SumAcross([]Vector{v, o, v.Scale(s)}), loopSumAcross([]Vector{v, o, loopScale(v, s)})},
	}
	for _, p := range pairs {
		if !sameBits(p.got, p.want) {
			return fmt.Sprintf("%s(%v, %v, %v) = %v, loop reference %v", p.name, v, o, s, p.got, p.want)
		}
	}
	if got, want := v.FitsIn(o), loopFitsIn(v, o); got != want {
		return fmt.Sprintf("FitsIn(%v, %v) = %v, loop reference %v", v, o, got, want)
	}
	if got, want := v.NonNegative(), loopNonNegative(v); got != want {
		return fmt.Sprintf("NonNegative(%v) = %v, loop reference %v", v, got, want)
	}
	return ""
}

// edgeGrid is every IEEE corner the methods can meet, plus neighbours of
// FitsIn's 1e-9 tolerance around 1.
func edgeGrid() []float64 {
	tol := 1 + 1e-9
	return []float64{
		math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		1, tol, math.Nextafter(tol, 2), math.Nextafter(tol, 0),
		1e-9, -1e-9, 2.5, -3,
	}
}

// TestVectorMethodsMatchLoopReference holds every written-out method to its
// loop reference over the edge grid: every pair of grid values as
// (v[k], o[k]) in each kind, every grid value as the scalar, and
// MaxAcross/SumAcross over every prefix of those vectors and over three
// copies of each grid value.
func TestVectorMethodsMatchLoopReference(t *testing.T) {
	g := edgeGrid()
	n := len(g)
	var series []Vector
	for i, a := range g {
		for j, b := range g {
			v := Vector{a, b, g[(i+j)%n]}
			o := Vector{b, a, g[(i*j+1)%n]}
			series = append(series, v, o)
			for r := 0; r < NumKinds; r++ {
				for _, s := range g {
					if msg := vectorMismatch(v, o, s); msg != "" {
						t.Fatal(msg)
					}
				}
				v, o = Vector{v[2], v[0], v[1]}, Vector{o[2], o[0], o[1]}
			}
		}
	}
	folds := [][]Vector{}
	for k := 0; k <= len(series); k++ {
		folds = append(folds, series[:k])
	}
	for _, x := range g {
		folds = append(folds, []Vector{{x, x, x}, {x, x, x}, {x, x, x}})
	}
	for _, vs := range folds {
		if got, want := MaxAcross(vs), loopMaxAcross(vs); !sameBits(got, want) {
			t.Fatalf("MaxAcross(%v) = %v, loop reference %v", vs, got, want)
		}
		if got, want := SumAcross(vs), loopSumAcross(vs); !sameBits(got, want) {
			t.Fatalf("SumAcross(%v) = %v, loop reference %v", vs, got, want)
		}
	}
}

// FuzzVectorOps runs the loop-reference comparison on fuzzed vectors and
// scalars; the seeds are edge-grid corners.
func FuzzVectorOps(f *testing.F) {
	g := edgeGrid()
	for i := range g {
		f.Add(g[i], g[(i+1)%len(g)], g[(i+2)%len(g)], g[(i+3)%len(g)], g[(i+5)%len(g)], g[(i+8)%len(g)], g[(i+13)%len(g)])
	}
	f.Fuzz(func(t *testing.T, v0, v1, v2, o0, o1, o2, s float64) {
		if msg := vectorMismatch(Vector{v0, v1, v2}, Vector{o0, o1, o2}, s); msg != "" {
			t.Fatal(msg)
		}
	})
}
