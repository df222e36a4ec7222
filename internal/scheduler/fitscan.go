package scheduler

import "repro/internal/cpufeat"

// hasFitScanAsm gates the assembly kernel, which needs AVX-512 F
// (VPCOMPRESSD), DQ (byte mask ops) and VL (256-bit index vectors).
var hasFitScanAsm = cpufeat.HasAVX512FDQVL

// fitEps is resource.Vector.FitsIn's slack, duplicated here because the
// feasibility scan compares against precomputed pool+eps arrays instead of
// calling FitsIn per VM. The precomputation performs the identical
// float64 addition FitsIn would, so every comparison sees the identical
// right-hand value and the candidate set is bit-identical.
const fitEps = 1e-9

// fitScanGeneric appends base+i to out for every index i whose pool entry
// satisfies the demand: !(d0 > q0[i]) && !(d1 > q1[i]) && !(d2 > q2[i]),
// where the q arrays already hold pool+fitEps. This is the portable
// reference scan; the assembly kernel must match it bit-for-bit (the
// comparisons are exact IEEE operations, so it does — including -Inf
// down-VM sentinels, which fail every finite demand, and NaN entries,
// which an ordered > reports as "not greater" and therefore fitting).
func fitScanGeneric(q0, q1, q2 []float64, d0, d1, d2 float64, out []int32, base int32) []int32 {
	q1 = q1[:len(q0)]
	q2 = q2[:len(q0)]
	for i := range q0 {
		if d0 > q0[i] || d1 > q1[i] || d2 > q2[i] {
			continue
		}
		out = append(out, base+int32(i))
	}
	return out
}

// fitScan returns the ascending indices of every pool entry satisfying the
// demand, reusing out's backing storage. On AVX-512 hardware the full
// 8-wide blocks run through the vector kernel (three VCMPPD fail-masks,
// complement, VPCOMPRESSD index store — the same exact comparisons eight
// lanes at a time); the remainder and non-AVX-512 machines take the scalar
// loop. Both paths produce the identical slice, so the scheduler's single
// rng.Intn(len(fits)) draw — and therefore every figure — is bit-identical
// whichever path runs.
func fitScan(q0, q1, q2 []float64, d0, d1, d2 float64, out []int32) []int32 {
	n := len(q0)
	if cap(out) < n {
		out = make([]int32, 0, n)
	}
	out = out[:0]
	if !hasFitScanAsm || n < 64 {
		return fitScanGeneric(q0, q1, q2, d0, d1, d2, out, 0)
	}
	blocks := n / 8
	buf := out[:n]
	cnt := int(fitScanAVX512(&q0[0], &q1[0], &q2[0], blocks, d0, d1, d2, &buf[0], 0))
	out = buf[:cnt]
	t := blocks * 8
	return fitScanGeneric(q0[t:n], q1[t:n], q2[t:n], d0, d1, d2, out, int32(t))
}
