package scheduler

import (
	"math"
	"testing"

	"repro/internal/resource"
)

// FuzzPoolsResize holds Pools.Resize to the resize rule of Section III on
// fuzzed ledgers. A live grant alloc sits in its pool next to other
// grants; every amount but the guaranteed capacity is non-negative, as
// schemes size them. Then:
//
//   - an opportunistic resize lands exactly on want and leaves Fresh alone;
//   - a fresh resize leaves Opp alone and never pushes Fresh past
//     guaranteed, beyond FitsIn's 1e-9 slack plus the rounding of its four
//     operations, unless Fresh was already past it, in which case the grant
//     does not grow;
//   - no pool goes negative;
//   - each kind is resized on its own inputs alone, so a NaN stays in its
//     kind, and the checks above pass it there, as FitsIn passes a NaN
//     component.
func FuzzPoolsResize(f *testing.F) {
	nan := math.NaN()
	f.Add(1.0, 2.0, 3.0, 1.5, 2.5, 2.0, 4.0, 4.0, 4.0, 1.0, 1.0, 0.0, 0.5, 0.5, 0.5, false)
	f.Add(1.0, 2.0, 3.0, 1.5, 2.5, 2.0, 4.0, 4.0, 4.0, 1.0, 1.0, 0.0, 0.5, 0.5, 0.5, true)
	f.Add(2.0, 2.0, 2.0, 9.0, 1.0, 2.0, 3.0, -1.0, 2.0, 1.0, 0.0, 1.5, 0.0, 0.0, 0.0, false)
	f.Add(nan, 1.0, 1.0, 2.0, nan, 1.0, 5.0, 5.0, nan, 1.0, 1.0, 1.0, nan, 0.0, 0.0, false)
	f.Add(1.0, nan, 1.0, nan, 2.0, 1.0, 5.0, 5.0, 5.0, nan, 1.0, 1.0, 0.0, 0.0, nan, true)
	f.Fuzz(func(t *testing.T, a0, a1, a2, w0, w1, w2, g0, g1, g2, f0, f1, f2, o0, o1, o2 float64, opp bool) {
		abs := func(x, y, z float64) resource.Vector { return resource.Vector{math.Abs(x), math.Abs(y), math.Abs(z)} }
		alloc, want := abs(a0, a1, a2), abs(w0, w1, w2)
		guaranteed := resource.Vector{g0, g1, g2}
		before := Pools{Fresh: abs(f0, f1, f2), Opp: abs(o0, o1, o2)}
		before.Charge(alloc, opp)

		p := before
		got := p.Resize(alloc, want, opp, guaranteed)
		for k := range got {
			if p.Fresh[k] < 0 || p.Opp[k] < 0 {
				t.Fatalf("kind %d: pool went negative: %+v", k, p)
			}
			if opp {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) || math.Float64bits(p.Fresh[k]) != math.Float64bits(before.Fresh[k]) {
					t.Fatalf("kind %d: opportunistic resize to %v landed on %v, fresh %v → %v", k, want[k], got[k], before.Fresh[k], p.Fresh[k])
				}
				continue
			}
			if math.Float64bits(p.Opp[k]) != math.Float64bits(before.Opp[k]) {
				t.Fatalf("kind %d: fresh resize moved Opp %v → %v", k, before.Opp[k], p.Opp[k])
			}
			if before.Fresh[k] <= guaranteed[k] {
				m := max(math.Abs(guaranteed[k]), before.Fresh[k], alloc[k], want[k])
				if tol := 1e-9 + 4*m*0x1p-52; p.Fresh[k] > guaranteed[k]+tol {
					t.Fatalf("kind %d: fresh resize pushed Fresh %v → %v past guaranteed %v", k, before.Fresh[k], p.Fresh[k], guaranteed[k])
				}
			} else if got[k] > alloc[k] {
				t.Fatalf("kind %d: Fresh %v already past guaranteed %v, yet the grant grew %v → %v", k, before.Fresh[k], guaranteed[k], alloc[k], got[k])
			}
		}

		// Each kind alone, the others zero: the same bits.
		for k := range got {
			only := func(v resource.Vector) resource.Vector {
				var o resource.Vector
				o[k] = v[k]
				return o
			}
			q := Pools{Fresh: only(before.Fresh), Opp: only(before.Opp)}
			alone := q.Resize(only(alloc), only(want), opp, only(guaranteed))
			for _, pair := range [][2]float64{{alone[k], got[k]}, {q.Fresh[k], p.Fresh[k]}, {q.Opp[k], p.Opp[k]}} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Fatalf("kind %d depends on the other kinds: alone %v / %+v, together %v / %+v", k, alone, q, got, p)
				}
			}
		}
	})
}
