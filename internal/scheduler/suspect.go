package scheduler

import "sort"

// suspectOverflowMax bounds the sorted overflow list before a rebuild
// repacks the dense suspect set. A var so tests can force frequent
// rebuilds.
var suspectOverflowMax = 256

// suspectMinLanes gates the suspect index to fleets where the packed scan
// actually pays for its bookkeeping; smaller fleets take the flat kernel.
// A var so tests can force either path on the same fleet.
var suspectMinLanes = 1024

// suspectQuantile is the per-kind demand quantile the gate threshold is
// drawn from: jobs above it (a few percent) take the flat scan, and the
// suspect set stays proportional to a high-but-typical demand instead of
// the batch's single largest job.
const suspectQuantile = 0.98

// suspectIndex accelerates randomFit over one pool's Q (pool+fitEps)
// arrays. Per Place call it splits the lanes against a per-kind threshold
// t drawn from the call's own demand distribution:
//
//   - non-suspect lanes satisfy Q[k] ≥ t[k] for every kind, so any gated
//     demand (d ≤ t componentwise) fits them outright — by transitivity of
//     the exact IEEE comparisons the flat scan would run, not by any
//     approximation;
//   - suspect lanes (anything with Q[k] < t[k] in some kind, which
//     includes every -Inf down sentinel) are packed into dense per-kind
//     copies that the exact fitScan kernel streams per job.
//
// A gated job's candidate count is then #non-suspect + #fitting-suspects,
// and the r-th candidate in ascending lane order is reconstructed by
// binary search — both bit-identical to the flat scan over all lanes,
// while the kernel touches ~a tenth of the data.
//
// Placements decrement pool entries mid-call. The invariant that makes
// the split sound — a non-suspect lane satisfies Q ≥ t at all times — is
// maintained by noteUpdate: a decremented dense lane has its packed
// copies refreshed in place, and a decremented non-suspect lane that
// dropped below the threshold joins the sorted overflow list, which the
// per-job scan evaluates against the live arrays. When the overflow
// outgrows suspectOverflowMax, the whole index is rebuilt from the live
// arrays.
type suspectIndex struct {
	built bool
	t     [3]float64
	n     int
	// Dense suspect set: lanes ascending, packed live copies of the Q
	// arrays, and the lane → dense-position map (-1 non-suspect, -2
	// overflow).
	sidx []int32
	sq   [3][]float64
	pos  []int32
	// Overflow: lanes demoted since the last rebuild, ascending.
	ovf []int32
	// Per-job scratch: fitting dense positions (kernel output) and
	// overflow fit prefix counts.
	fitPos    []int32
	ovfPrefix []int32
}

func (x *suspectIndex) reset() { x.built = false }

// build classifies every lane against t from the live Q arrays.
func (x *suspectIndex) build(q *[3][]float64, t [3]float64) {
	x.t = t
	x.n = len(q[0])
	x.built = true
	x.sidx = x.sidx[:0]
	x.ovf = x.ovf[:0]
	if cap(x.pos) < x.n {
		x.pos = make([]int32, x.n)
	}
	x.pos = x.pos[:x.n]
	for k := 0; k < 3; k++ {
		x.sq[k] = x.sq[k][:0]
	}
	q0, q1, q2 := q[0], q[1], q[2]
	for i := 0; i < x.n; i++ {
		if q0[i] < t[0] || q1[i] < t[1] || q2[i] < t[2] {
			x.pos[i] = int32(len(x.sidx))
			x.sidx = append(x.sidx, int32(i))
			x.sq[0] = append(x.sq[0], q0[i])
			x.sq[1] = append(x.sq[1], q1[i])
			x.sq[2] = append(x.sq[2], q2[i])
		} else {
			x.pos[i] = -1
		}
	}
}

// noteUpdate re-syncs the index after lane's Q entries changed (always a
// decrement: placements only shrink pools). Dense lanes refresh their
// packed copies; non-suspect lanes that dropped below the threshold join
// the overflow.
func (x *suspectIndex) noteUpdate(q *[3][]float64, lane int) {
	if !x.built {
		return
	}
	switch p := x.pos[lane]; {
	case p >= 0:
		x.sq[0][p] = q[0][lane]
		x.sq[1][p] = q[1][lane]
		x.sq[2][p] = q[2][lane]
	case p == -1:
		if q[0][lane] < x.t[0] || q[1][lane] < x.t[1] || q[2][lane] < x.t[2] {
			x.pos[lane] = -2
			i := lowerBound32(x.ovf, int32(lane))
			x.ovf = append(x.ovf, 0)
			copy(x.ovf[i+1:], x.ovf[i:])
			x.ovf[i] = int32(lane)
		}
	}
}

// scan computes the gated demand's exact candidate count: non-suspect
// lanes all fit; dense suspects run through the same fitScan kernel the
// flat path uses (over the packed copies); overflow lanes are checked
// against the live arrays. Rebuilds first if the overflow list is full.
func (x *suspectIndex) scan(q *[3][]float64, d0, d1, d2 float64) int {
	if len(x.ovf) >= suspectOverflowMax {
		x.build(q, x.t)
	}
	x.fitPos = fitScan(x.sq[0], x.sq[1], x.sq[2], d0, d1, d2, x.fitPos)
	if cap(x.ovfPrefix) < len(x.ovf)+1 {
		x.ovfPrefix = make([]int32, 0, suspectOverflowMax+1)
	}
	x.ovfPrefix = x.ovfPrefix[:1]
	x.ovfPrefix[0] = 0
	q0, q1, q2 := q[0], q[1], q[2]
	for _, lane := range x.ovf {
		c := x.ovfPrefix[len(x.ovfPrefix)-1]
		if !(d0 > q0[lane] || d1 > q1[lane] || d2 > q2[lane]) {
			c++
		}
		x.ovfPrefix = append(x.ovfPrefix, c)
	}
	nonSuspect := x.n - len(x.sidx) - len(x.ovf)
	return nonSuspect + len(x.fitPos) + int(x.ovfPrefix[len(x.ovf)])
}

// selectNth returns the lane of the r-th (0-based) fitting candidate in
// ascending lane order for the demand scan just ran — exactly the lane
// fitScan's flat candidate list holds at index r. It binary-searches the
// smallest lane x with r+1 fits at or below x; fitsBelow is monotone and
// steps by one exactly at fitting lanes, so the boundary is the candidate.
func (x *suspectIndex) selectNth(r int) int {
	if len(x.ovf) == 0 && len(x.fitPos) == len(x.sidx) {
		// Every suspect fit too (common for small demands on an
		// all-up fleet), so every lane is a candidate: the r-th is r.
		return r
	}
	lo, hi := 0, x.n // invariant: fitsBelow(lo) ≤ r < fitsBelow(hi)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if x.fitsBelow(mid) > r {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}

// fitsBelow counts fitting candidates among lanes < lane for the demand
// last passed to scan. selectNth probes it ~log2(n) times per placement,
// so the three searches are hand-rolled lower bounds rather than
// sort.Search closures.
func (x *suspectIndex) fitsBelow(lane int) int {
	l := int32(lane)
	sBelow := lowerBound32(x.sidx, l)
	oBelow := 0
	if len(x.ovf) > 0 {
		oBelow = lowerBound32(x.ovf, l)
	}
	lo, hi := 0, len(x.fitPos)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if x.sidx[x.fitPos[mid]] < l {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return (lane - sBelow - oBelow) + lo + int(x.ovfPrefix[oBelow])
}

// lowerBound32 returns the first index whose element is ≥ v in the
// ascending slice a.
func lowerBound32(a []int32, v int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// demandQuantile returns the per-kind suspectQuantile over the call's
// precomputed job demands — the gate threshold t for this Place call.
func demandQuantile(demands [][3]float64, scratch []float64) [3]float64 {
	var t [3]float64
	m := len(demands)
	if m == 0 {
		return t
	}
	if cap(scratch) < m {
		scratch = make([]float64, m)
	}
	idx := int(float64(m-1) * suspectQuantile)
	for k := 0; k < 3; k++ {
		scratch = scratch[:0]
		for _, d := range demands {
			scratch = append(scratch, d[k])
		}
		sort.Float64s(scratch)
		t[k] = scratch[idx]
	}
	return t
}
