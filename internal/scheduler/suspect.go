package scheduler

import "repro/internal/resource"

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
// and selectNth finds the r-th candidate in ascending lane order with one
// binary search over the fitting suspects (then, when the answer lies
// between two of them, one over the misfits in that gap) — both
// bit-identical to the flat scan over all lanes, while the kernel touches
// ~a tenth of the data.
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
// fitScan's flat candidate list holds at index r.
//
// It searches the fitting dense suspects, whose candidate counts need no
// nested search: the one at dense position p = fitPos[m] has p suspects
// and m fitting suspects below its lane, so candBelow prices it with one
// lower bound over the (≤ suspectOverflowMax) overflow lanes. A fitting
// suspect with exactly r candidates below it is the answer. Otherwise the
// answer lies in the gap between the last fitting suspect with fewer and
// the first with more, and the dense suspects in that gap all misfit: the
// same formula finds the last of those below the answer. From base, the
// lane after it, the answer is r − count candidates further on, stepping
// past each misfitting overflow lane on the way.
func (x *suspectIndex) selectNth(r int) int {
	if len(x.ovf) == 0 && len(x.fitPos) == len(x.sidx) {
		// Every suspect fit too (common for small demands on an
		// all-up fleet), so every lane is a candidate: the r-th is r.
		return r
	}
	// The lane of fitPos[lo] (or lane -1 at lo = -1) has fewer than r
	// candidates below it; the lane of fitPos[hi] (or the end) has more.
	// base is the lane after fitPos[lo]'s, with below candidates and o
	// overflow lanes under it.
	base, below, o := 0, 0, 0
	lo, hi := -1, len(x.fitPos)
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		p := x.fitPos[mid]
		lane := int(x.sidx[p])
		c, oc := x.candBelow(lane, int(p), mid)
		if c > r {
			hi = mid
			continue
		}
		if c == r {
			return lane
		}
		lo, base, below, o = mid, lane+1, c+1, oc
	}
	// Dense positions [a+1, b) lie between the two fitting suspects and
	// all misfit; each has lo+1 fitting suspects below it.
	a, b := -1, len(x.sidx)
	if lo >= 0 {
		a = int(x.fitPos[lo])
	}
	if hi < len(x.fitPos) {
		b = int(x.fitPos[hi])
	}
	for b-a > 1 {
		mid := int(uint(a+b) >> 1)
		lane := int(x.sidx[mid])
		c, oc := x.candBelow(lane, mid, lo+1)
		if c > r {
			b = mid
		} else {
			a, base, below, o = mid, lane+1, c, oc
		}
	}
	// [base, the next dense suspect) holds non-suspect lanes, which are
	// candidates, and overflow lanes, which are when they fit.
	lane := base + r - below
	for ; o < len(x.ovf) && int(x.ovf[o]) <= lane; o++ {
		if x.ovfPrefix[o+1] == x.ovfPrefix[o] {
			lane++
		}
	}
	return lane
}

// candBelow counts the candidates among lanes < lane, for a lane that is
// not an overflow lane and has p dense suspects and m fitting dense
// suspects below it. It also returns o, the number of overflow lanes
// below it.
func (x *suspectIndex) candBelow(lane, p, m int) (count, o int) {
	o = lowerBound32(x.ovf, int32(lane))
	return lane - p - o + m + int(x.ovfPrefix[o]), o
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
// precomputed job demands — the gate threshold t for this Place call —
// and the scratch buffer, grown if it had to be, for the next call. The
// quantile is the idx-th order statistic, which is one value whatever
// order ties come in, so selection gives the bits a full sort would.
func demandQuantile(demands []resource.Vector, scratch []float64) ([resource.NumKinds]float64, []float64) {
	var t [resource.NumKinds]float64
	m := len(demands)
	if m == 0 {
		return t, scratch
	}
	idx := int(float64(m-1) * suspectQuantile)
	for k := range t {
		scratch = scratch[:0]
		for i := range demands {
			scratch = append(scratch, demands[i][k])
		}
		t[k] = nthFloat64(scratch, idx)
	}
	return t, scratch
}

// nthFloat64 returns the value sort.Float64s would leave at a[k],
// reordering a, which holds no NaN (job.Validate rejects non-finite
// usage): a quickselect with a three-way partition, so runs of equal
// values (the zero demands) settle in one pass.
func nthFloat64(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		// Median of three as the pivot.
		x, y, z := a[lo], a[lo+(hi-lo)/2], a[hi]
		if x > y {
			x, y = y, x
		}
		if y > z {
			y = z
			if x > y {
				y = x
			}
		}
		pivot := y
		// [lo, lt) < pivot, [lt, i) == pivot, (gt, hi] > pivot.
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch v := a[i]; {
			case v < pivot:
				a[lt], a[i] = v, a[lt]
				lt++
				i++
			case v > pivot:
				a[gt], a[i] = v, a[gt]
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return pivot
		}
	}
	return a[k]
}
