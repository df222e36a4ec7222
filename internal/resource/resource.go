// Package resource models multi-dimensional cloud resources (CPU, memory,
// storage) as fixed-size vectors with value semantics.
//
// The paper (CORP, CLUSTER 2016) evaluates with l = 3 resource types and
// weights ω = (0.4, 0.4, 0.2) for CPU, memory and storage respectively
// (storage is not the bottleneck resource). Vectors are plain arrays so they
// are cheap to copy, hashable, and safe to share without synchronization.
package resource

import (
	"fmt"
	"math"
	"strings"
)

// Kind identifies one resource dimension.
type Kind int

// The resource dimensions used throughout the paper's evaluation.
const (
	CPU Kind = iota
	Memory
	Storage

	// NumKinds is l, the number of resource types (paper Table II: l = 3).
	NumKinds = 3
)

// String returns the conventional short name of the resource kind.
func (k Kind) String() string {
	switch k {
	case CPU:
		return "CPU"
	case Memory:
		return "MEM"
	case Storage:
		return "STO"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Kinds returns all resource kinds in order. The returned slice is fresh on
// every call so callers may mutate it.
func Kinds() []Kind {
	return []Kind{CPU, Memory, Storage}
}

// Vector is an amount of each resource kind. The unit is abstract but
// consistent per kind across the whole simulation (cores, GB, GB).
//
// Go's compiler keeps an array of more than one element in memory, so a
// per-element loop costs a zeroed stack temporary and a counted loop per
// call. The element-wise methods and the folds are therefore written out
// per kind, which keeps the components in registers; each still performs
// the same IEEE operation per kind, and each fold keeps its exact chain
// (one accumulator per kind from +0, in slice order). The written-out forms
// assume NumKinds = 3. Sum, Weighted, Volume and Dominant keep their loops:
// their chains start at 0 +, which turns a leading −0 into +0, and a
// written-out chain would not.
type Vector [NumKinds]float64

// New builds a vector from per-kind amounts.
func New(cpu, mem, sto float64) Vector {
	return Vector{cpu, mem, sto}
}

// Weights is a normalized importance vector ω with Σωⱼ = 1 (paper Eq. 2).
type Weights [NumKinds]float64

// DefaultWeights are the paper's evaluation weights: CPU 0.4, MEM 0.4,
// storage 0.2 ("storage is not the bottleneck resource").
func DefaultWeights() Weights {
	return Weights{0.4, 0.4, 0.2}
}

// Add returns v + o element-wise.
func (v Vector) Add(o Vector) Vector {
	return Vector{v[0] + o[0], v[1] + o[1], v[2] + o[2]}
}

// Sub returns v − o element-wise.
func (v Vector) Sub(o Vector) Vector {
	return Vector{v[0] - o[0], v[1] - o[1], v[2] - o[2]}
}

// Scale returns v scaled by s.
func (v Vector) Scale(s float64) Vector {
	return Vector{v[0] * s, v[1] * s, v[2] * s}
}

// Mul returns the element-wise product.
func (v Vector) Mul(o Vector) Vector {
	return Vector{v[0] * o[0], v[1] * o[1], v[2] * o[2]}
}

// Div returns the element-wise quotient v/o. Divisions by zero yield +Inf
// for positive numerators, NaN for 0/0, mirroring IEEE semantics so callers
// can detect misuse rather than silently masking it.
func (v Vector) Div(o Vector) Vector {
	return Vector{v[0] / o[0], v[1] / o[1], v[2] / o[2]}
}

// Min returns the element-wise minimum. The builtin min matches math.Min
// for every input (NaN propagation, -0 ordered below +0) without the call
// overhead on this hot path.
func (v Vector) Min(o Vector) Vector {
	return Vector{min(v[0], o[0]), min(v[1], o[1]), min(v[2], o[2])}
}

// Max returns the element-wise maximum (builtin max; see Min).
func (v Vector) Max(o Vector) Vector {
	return Vector{max(v[0], o[0]), max(v[1], o[1]), max(v[2], o[2])}
}

// ClampNonNegative zeroes any negative component. Predicted unused amounts
// can dip below zero after confidence-interval subtraction (paper Eq. 19);
// a negative available amount is meaningless for allocation.
func (v Vector) ClampNonNegative() Vector {
	return Vector{positive(v[0]), positive(v[1]), positive(v[2])}
}

// SubClamp returns v − o with every negative component zeroed: the same
// operations as v.Sub(o).ClampNonNegative(), cheap enough to inline into
// callers that would otherwise cross the inliner's budget.
func (v Vector) SubClamp(o Vector) Vector {
	return Vector{positive(v[0] - o[0]), positive(v[1] - o[1]), positive(v[2] - o[2])}
}

// positive returns x if x > 0 and +0 otherwise: −0 and NaN become +0.
func positive(x float64) float64 {
	if x > 0 {
		return x
	}
	return 0
}

// ClampTo limits every component to at most the corresponding component of
// ceiling (and at least zero).
func (v Vector) ClampTo(ceiling Vector) Vector {
	return Vector{
		min(max(v[0], 0), ceiling[0]),
		min(max(v[1], 0), ceiling[1]),
		min(max(v[2], 0), ceiling[2]),
	}
}

// FitsIn reports whether every component of v is ≤ the corresponding
// component of capacity (with a tiny epsilon for float accumulation). A NaN
// component fits: only a component strictly above capacity+ε fails.
func (v Vector) FitsIn(capacity Vector) bool {
	const eps = 1e-9
	return !(v[0] > capacity[0]+eps) && !(v[1] > capacity[1]+eps) && !(v[2] > capacity[2]+eps)
}

// IsZero reports whether all components are exactly zero.
func (v Vector) IsZero() bool {
	return v == Vector{}
}

// NonNegative reports whether all components are ≥ 0. NaN is not.
func (v Vector) NonNegative() bool {
	return v[0] >= 0 && v[1] >= 0 && v[2] >= 0
}

// Sum returns the sum of all components.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Weighted returns Σⱼ ωⱼ·vⱼ, the weighted scalar value used by the paper's
// overall utilization and wastage metrics (Eqs. 2 and 4).
func (v Vector) Weighted(w Weights) float64 {
	var s float64
	for i, x := range v {
		s += w[i] * x
	}
	return s
}

// Dominant returns the job's dominant resource: the kind with the largest
// demand after normalizing by reference capacity (Section III-B). Reference
// normalization makes demands on heterogeneous units comparable; passing
// an all-ones reference degrades to raw-amount comparison.
func (v Vector) Dominant(reference Vector) Kind {
	best := Kind(0)
	bestShare := math.Inf(-1)
	for i, x := range v {
		ref := reference[i]
		share := x
		if ref > 0 {
			share = x / ref
		}
		if share > bestShare {
			bestShare = share
			best = Kind(i)
		}
	}
	return best
}

// Volume computes the unused-resource volume of paper Eq. 22:
// volume = Σₖ r̂ₖ / C′ₖ, where C′ is the per-kind maximum capacity across
// all VMs. Kinds with zero reference capacity contribute nothing.
func (v Vector) Volume(maxCapacity Vector) float64 {
	var s float64
	for i, x := range v {
		if maxCapacity[i] > 0 {
			s += x / maxCapacity[i]
		}
	}
	return s
}

// At returns the component for kind k.
func (v Vector) At(k Kind) float64 { return v[k] }

// With returns a copy of v with kind k replaced by amount.
func (v Vector) With(k Kind, amount float64) Vector {
	v[k] = amount
	return v
}

// String renders the vector as "<cpu, mem, sto>" matching the paper's
// example notation, e.g. "<25.0, 2.0, 30.0>".
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('<')
	for i, x := range v {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.3g", x)
	}
	b.WriteByte('>')
	return b.String()
}

// MaxAcross returns the element-wise maximum across all vectors; this is C′
// in paper Eq. 22. An empty input yields the zero vector.
func MaxAcross(vs []Vector) Vector {
	var c, m, s float64
	for i := range vs {
		c, m, s = max(c, vs[i][0]), max(m, vs[i][1]), max(s, vs[i][2])
	}
	return Vector{c, m, s}
}

// SumAcross returns the element-wise sum across all vectors, each kind one
// chain from +0 in slice order.
func SumAcross(vs []Vector) Vector {
	var c, m, s float64
	for i := range vs {
		c, m, s = c+vs[i][0], m+vs[i][1], s+vs[i][2]
	}
	return Vector{c, m, s}
}
