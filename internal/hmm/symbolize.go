package hmm

import (
	"errors"

	"repro/internal/stats"
)

// Symbolizer categorizes unused-resource fluctuations into the paper's
// peak/center/valley observation symbols.
//
// Given historical unused amounts with minimum minᵣ, mean mᵣ and maximum
// maxᵣ, the interval [minᵣ, maxᵣ] splits at
//
//	t₁ = minᵣ + ½(mᵣ − minᵣ)   and   t₂ = mᵣ + ½(maxᵣ − mᵣ).
//
// For each observation window the paper takes Δⱼ, the difference between
// the window's maximum and minimum unused amount; Δⱼ ≤ t₁ → valley,
// Δⱼ < t₂ → center, otherwise peak. ObserveLevels explains why this
// reproduction symbolizes the window's level instead.
type Symbolizer struct {
	Min, Mean, Max float64
}

var errEmptyHistory = errors.New("hmm: empty history")

// NewSymbolizer derives thresholds from historical unused-resource samples.
func NewSymbolizer(history []float64) (*Symbolizer, error) {
	s, err := MakeSymbolizer(history)
	if err != nil {
		return nil, err
	}
	return &s, nil
}

// MakeSymbolizer is NewSymbolizer returning the Symbolizer by value, so
// hot paths that rebuild thresholds every prediction keep it on the stack.
func MakeSymbolizer(history []float64) (Symbolizer, error) {
	if len(history) == 0 {
		return Symbolizer{}, errEmptyHistory
	}
	lo, hi, err := stats.MinMax(history)
	if err != nil {
		return Symbolizer{}, err
	}
	return Symbolizer{Min: lo, Mean: stats.Mean(history), Max: hi}, nil
}

// Thresholds returns (t₁, t₂).
func (s *Symbolizer) Thresholds() (t1, t2 float64) {
	t1 = s.Min + 0.5*(s.Mean-s.Min)
	t2 = s.Mean + 0.5*(s.Max-s.Mean)
	return t1, t2
}

// ObserveLevels builds the observation sequence from window *levels*
// rather than window ranges: each consecutive window of windowLen slots is
// reduced to its mean and symbolized against the level thresholds
// (mean ≤ t₁ → valley, < t₂ → center, else peak).
//
// The paper's text symbolizes the window range Δⱼ against thresholds
// derived from the level distribution, which mixes units: a range can be
// "valley" while the level sits at a peak, and the subsequent correction
// (lowering the estimate on valley) then points the wrong way. Level
// symbolization preserves the paper's intent — detect whether the unused
// amount is about to sit low or high and shift the estimate accordingly —
// with consistent units.
func (s *Symbolizer) ObserveLevels(series []float64, windowLen int) []Symbol {
	return s.AppendObserveLevels(nil, series, windowLen)
}

// AppendObserveLevels is ObserveLevels writing into dst (usually a reused
// scratch slice re-sliced to length 0); it allocates only when dst lacks
// capacity.
func (s *Symbolizer) AppendObserveLevels(dst []Symbol, series []float64, windowLen int) []Symbol {
	if windowLen < 1 {
		windowLen = 1
	}
	if len(series) < windowLen {
		return dst
	}
	for start := 0; start+windowLen <= len(series); start += windowLen {
		win := series[start : start+windowLen]
		dst = append(dst, s.SymbolForLevel(stats.Mean(win)))
	}
	return dst
}

// SymbolForLevel categorizes an unused-resource level (not a range).
func (s *Symbolizer) SymbolForLevel(level float64) Symbol {
	t1, t2 := s.Thresholds()
	switch {
	case level <= t1:
		return Valley
	case level < t2:
		return Center
	default:
		return Peak
	}
}

// WindowMeans reduces a series to consecutive window means; NewSymbolizer
// over this reduced series yields thresholds and a correction magnitude in
// window-mean units, matching what the predictor actually estimates.
func WindowMeans(series []float64, windowLen int) []float64 {
	return AppendWindowMeans(nil, series, windowLen)
}

// AppendWindowMeans is WindowMeans writing into dst (usually a reused
// scratch slice re-sliced to length 0); it allocates only when dst lacks
// capacity.
func AppendWindowMeans(dst []float64, series []float64, windowLen int) []float64 {
	if windowLen < 1 {
		windowLen = 1
	}
	for start := 0; start+windowLen <= len(series); start += windowLen {
		dst = append(dst, stats.Mean(series[start:start+windowLen]))
	}
	return dst
}

// CorrectionMagnitude returns the paper's peak/valley adjustment step
// min(h−m, m−l) where h, m, l are the highest, average and lowest unused
// amounts within the calibration period. The min makes the correction
// "more conservative for ensuring sufficient resource being able to [be]
// allocated to jobs".
func (s *Symbolizer) CorrectionMagnitude() float64 {
	up := s.Max - s.Mean
	down := s.Mean - s.Min
	if up < down {
		return up
	}
	return down
}

// CorrectToward applies a band-bounded variant of the paper's correction:
// when the HMM predicts the next window sits in the valley (peak) band, the
// estimate is moved down (up) by at most the correction magnitude, but
// never past the band edge t₁ (t₂). The paper's unconditional shift assumes
// the base predictor sits near the historical mean ("the predicted amount
// may be close to m_cpu"); when the DNN already tracks the regime, an
// unconditional shift overshoots, so the band edge bounds it.
func (s *Symbolizer) CorrectToward(predicted float64, next Symbol) float64 {
	step := s.CorrectionMagnitude()
	t1, t2 := s.Thresholds()
	switch next {
	case Valley:
		if predicted > t1 {
			moved := predicted - step
			if moved < t1 {
				moved = t1
			}
			predicted = moved
		}
	case Peak:
		if predicted < t2 {
			moved := predicted + step
			if moved > t2 {
				moved = t2
			}
			predicted = moved
		}
	}
	if predicted < 0 {
		return 0
	}
	return predicted
}
