// Package fmath holds the one elementary function whose bits the repo's
// results depend on, so that they do not depend on which assembly the Go
// release's math package happens to run on the host.
package fmath

import "math"

// Exp returns e**x. It is a plain-Go replay, operation for operation, of
// the FMA branch of Go's amd64 math.Exp (exp_amd64.s: Shibata's SLEEF
// range reduction, a Horner chain on the reduced argument, four
// squarings), so on an amd64 host with FMA it returns math.Exp's bits —
// including that function's +Inf from x ≈ 709.44 upwards, where the
// rounded exponent reaches 1024 — and everywhere else it returns the same
// bits still: math.FMA is exact with or without the instruction, and the
// float64 conversions round every product the assembly rounds, which stops
// the compiler fusing it into the add that follows (arm64, GOAMD64=v3).
// The AVX2 sigmoid kernel in internal/dnn is the same chain four lanes at
// a time.
func Exp(x float64) float64 {
	const (
		log2e    = 1.4426950408889634073599246810018920
		ln2u     = 0.69314718055966295651160180568695068359375 // upper half of ln 2
		ln2l     = 0.28235290563031577122588448175013436025525412068e-12
		overflow = 7.09782712893384e+02
	)
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case math.IsInf(x, -1):
		return 0
	case x > overflow:
		return math.Inf(1)
	}
	kf := math.RoundToEven(float64(log2e * x)) // CVTSD2SL under the default rounding mode
	if kf < -1075 {
		// Biased exponent below -52: the assembly underflows to 0 after
		// the chain. Deciding it here also keeps every kf that CVTSD2SL
		// cannot represent (it yields MinInt32, which lands here too) away
		// from Go's implementation-defined out-of-range conversion.
		return 0
	}
	k := int(kf)
	kf = float64(k) // CVTSL2SD: -0 becomes +0
	r := math.FMA(-kf, ln2u, x)
	r = math.FMA(-kf, ln2l, r)
	r = float64(r * 0.0625)
	p := 2.4801587301587301587e-5
	p = math.FMA(r, p, 1.9841269841269841270e-4)
	p = math.FMA(r, p, 1.3888888888888888889e-3)
	p = math.FMA(r, p, 8.3333333333333333333e-3)
	p = math.FMA(r, p, 4.1666666666666666667e-2)
	p = math.FMA(r, p, 1.6666666666666666667e-1)
	p = math.FMA(r, p, 0.5)
	p = math.FMA(r, p, 1)
	r = float64(r * p)
	for i := 0; i < 3; i++ {
		p = r + 2
		r = float64(r * p)
	}
	p = r + 2
	r = math.FMA(p, r, 1)
	// r·2**k, through the exponent field.
	e := k + 0x3FF
	switch {
	case e >= 0x7FF:
		return math.Inf(1)
	case e <= 0: // subnormal result: scale in two steps, the second by 2**-1022
		r = float64(r * math.Float64frombits(uint64(e+0x3FE)<<52))
		e = 1
	}
	return float64(r * math.Float64frombits(uint64(e)<<52))
}
