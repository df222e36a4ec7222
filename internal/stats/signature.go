package stats

// PRESS-style signature detection, used by the CloudScale baseline.
//
// CloudScale builds on PRESS (Gong et al., CNSM 2010): it computes a
// periodogram of the recent resource-usage series, and if a dominant period
// explains enough of the signal energy it predicts by replaying the
// per-period "signature" pattern; otherwise it falls back to a discrete-time
// Markov chain over binned usage levels. Short-lived jobs rarely exhibit a
// dominant period, which is precisely why CloudScale underperforms CORP in
// the paper's evaluation — this implementation preserves that behaviour.

// dominantFromPower applies the signature decision rule to a power
// spectrum over a length-n series: the spectral peak must carry minShare
// of the energy, frequency 1 (the trend) is rejected, and the implied
// period must repeat at least twice within the window.
func dominantFromPower(power []float64, n int, minShare float64) (int, bool) {
	if len(power) == 0 {
		return 0, false
	}
	var total float64
	best := 0
	for k, p := range power {
		total += p
		if p > power[best] {
			best = k
		}
	}
	if total <= 0 {
		return 0, false
	}
	if power[best]/total < minShare {
		return 0, false
	}
	freq := best + 1 // k index
	if freq < 2 {
		// Frequency 1 is the trend itself, not a repeating signature: one
		// "period" spans the whole window, so the pattern can never be
		// validated against a second occurrence.
		return 0, false
	}
	period := n / freq
	if period < 2 {
		return 0, false
	}
	return period, true
}

// MarkovChain is a first-order discrete-time Markov chain over usage levels
// quantized into equal-width bins. It is the PRESS fallback predictor that
// CloudScale uses "when pattern is not found".
type MarkovChain struct {
	bins   int
	lo, hi float64
	counts [][]float64 // transition counts with Laplace smoothing
	last   int
	seen   int

	// Predict scratch: smoothed row plus ping-pong state distributions,
	// allocated once at construction so steady-state prediction never
	// touches the heap.
	rowBuf, distBuf, nextBuf []float64
}

// NewMarkovChains builds one chain per entry of his, chain i over the value
// range [lo, his[i]] with the given number of bins. Every chain's counts and
// scratch are carved from one float slab and one row slab, so a fleet of
// chains costs three allocations. Bins < 2 are raised to 2; a degenerate
// range is widened slightly so binning stays defined.
func NewMarkovChains(bins int, lo float64, his []float64) []MarkovChain {
	if bins < 2 {
		bins = 2
	}
	per := bins*bins + 3*bins // transition counts, then rowBuf/distBuf/nextBuf
	slab := make([]float64, len(his)*per)
	rows := make([][]float64, len(his)*bins)
	chains := make([]MarkovChain, len(his))
	for c, hi := range his {
		if hi <= lo {
			hi = lo + 1
		}
		own := slab[c*per : (c+1)*per : (c+1)*per]
		counts := rows[c*bins : (c+1)*bins : (c+1)*bins]
		for i := range counts {
			counts[i] = own[i*bins : (i+1)*bins : (i+1)*bins]
		}
		scratch := own[bins*bins:]
		chains[c] = MarkovChain{
			bins: bins, lo: lo, hi: hi, counts: counts,
			rowBuf:  scratch[0*bins : 1*bins : 1*bins],
			distBuf: scratch[1*bins : 2*bins : 2*bins],
			nextBuf: scratch[2*bins : 3*bins : 3*bins],
		}
	}
	return chains
}

// Bin quantizes a value into a bin index, clamping out-of-range values.
func (mc *MarkovChain) Bin(x float64) int {
	f := (x - mc.lo) / (mc.hi - mc.lo)
	b := int(f * float64(mc.bins))
	if b < 0 {
		b = 0
	}
	if b >= mc.bins {
		b = mc.bins - 1
	}
	return b
}

// binCenter returns the representative value for a bin.
func (mc *MarkovChain) binCenter(b int) float64 {
	width := (mc.hi - mc.lo) / float64(mc.bins)
	return mc.lo + (float64(b)+0.5)*width
}

// Observe folds one sample into the transition counts.
func (mc *MarkovChain) Observe(x float64) {
	b := mc.Bin(x)
	if mc.seen > 0 {
		mc.counts[mc.last][b]++
	}
	mc.last = b
	mc.seen++
}

// transitionRowInto writes the smoothed transition distribution out of bin
// b into a caller-owned slice of length mc.bins (additive smoothing of 0.1
// so unseen transitions keep nonzero mass without drowning short histories
// in prior probability).
func (mc *MarkovChain) transitionRowInto(row []float64, b int) {
	var total float64
	for j, c := range mc.counts[b] {
		row[j] = c + 0.1
		total += row[j]
	}
	for j := range row {
		row[j] /= total
	}
}

// Predict returns the expected value h steps ahead of the last observed
// sample, computed by propagating the state distribution through the
// transition matrix. Before any observation it returns the range midpoint.
func (mc *MarkovChain) Predict(h int) float64 {
	if mc.seen == 0 {
		return (mc.lo + mc.hi) / 2
	}
	if h < 1 {
		h = 1
	}
	// Chains built by struct literal (none today) would lack the scratch;
	// guard so Predict stays total.
	if mc.rowBuf == nil {
		mc.rowBuf = make([]float64, mc.bins)
		mc.distBuf = make([]float64, mc.bins)
		mc.nextBuf = make([]float64, mc.bins)
	}
	dist, next := mc.distBuf, mc.nextBuf
	for j := range dist {
		dist[j] = 0
	}
	dist[mc.last] = 1
	for step := 0; step < h; step++ {
		for j := range next {
			next[j] = 0
		}
		for i, p := range dist {
			if p == 0 {
				continue
			}
			mc.transitionRowInto(mc.rowBuf, i)
			for j, q := range mc.rowBuf {
				next[j] += p * q
			}
		}
		dist, next = next, dist
	}
	var ev float64
	for b, p := range dist {
		ev += p * mc.binCenter(b)
	}
	return ev
}
