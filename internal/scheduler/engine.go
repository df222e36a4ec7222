package scheduler

import (
	"math"
	"sync"

	"repro/internal/resource"
)

// This file is the prediction engine: the per-slot observe pass, the
// per-window batched Refresh, and the one place a run goes concurrent. Every
// per-VM pass is a serial loop in ascending VM order. The exception is CORP's
// training feed: the shared brain keeps one network, replay ring and RNG per
// resource kind, and the kinds share nothing, so at Workers > 1 each kind's
// staged samples are fed on a goroutine of its own (trainKinds), still in
// ascending VM order within the kind. Any worker count yields bit-identical
// figures.

// BatchObserver is the part of Scheduler that ingests a whole slot's
// observations at once. skip[i] (optional, may be nil) marks VMs
// whose sample must not be fed this slot (e.g. down VMs); semantics are
// identical to calling Observe(i, actualUnused[i]) for every non-skipped
// VM in ascending order.
type BatchObserver interface {
	ObserveAll(actualUnused []resource.Vector, skip []bool)
}

// SpanObserver is the part of Scheduler that ingests several consecutive
// slots' observations in one call. rows[s][i] is VM i's sample
// for the s-th slot of the span; semantics are identical to calling
// ObserveAll(rows[s], skip) for s = 0, 1, ... in order. The simulator's
// quiescent-span fast-forward uses this to feed k slots of periodic
// resident telemetry without re-entering the per-slot dispatch.
type SpanObserver interface {
	ObserveSpan(rows [][]resource.Vector, skip []bool)
}

// kindTrainer is the training fan-out's callback: trainKind(k) feeds
// resource kind k's staged samples into the shared brain, touching only
// kind-k state.
type kindTrainer interface {
	trainKind(k resource.Kind)
}

// trainKinds runs trainKind for every resource kind. At workers <= 1 the
// kinds run one after another on the calling goroutine; above that each kind
// gets its own goroutine, so widths above resource.NumKinds buy nothing.
// Kinds share no state and each kind's stream keeps its own fixed order, so
// no merge is needed and the result is the same at any width.
func trainKinds(workers int, t kindTrainer) {
	if workers <= 1 {
		for k := range resource.NumKinds {
			t.trainKind(resource.Kind(k))
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(resource.NumKinds)
	for k := range resource.NumKinds {
		go func() {
			defer wg.Done()
			t.trainKind(resource.Kind(k))
		}()
	}
	wg.Wait()
}

// trainKind implements kindTrainer: every VM's staged kind-k sample enters
// the brain in ascending VM order. A VM that was not observed this slot has
// nothing staged, so FlushShared returns at once.
func (s *corpScheduler) trainKind(k resource.Kind) {
	for i := range s.corpFleet {
		s.corpFleet[i].FlushShared(k)
	}
}

// ObserveAll (corpScheduler override) implements BatchObserver in two
// steps: a serial ObserveLocal pass in VM order (tracker updates plus one
// staged training sample per kind), then trainKinds feeding the staged
// samples into the shared brain. Each VM's predictor sees exactly what
// Observe would do, and each kind's training stream runs in VM order, so the
// result is bit-identical to serial per-VM Observe calls at any worker count.
func (s *corpScheduler) ObserveAll(actualUnused []resource.Vector, skip []bool) {
	if s.corpFleet == nil {
		s.base.ObserveAll(actualUnused, skip)
		return
	}
	for i := range s.corpFleet {
		if skip != nil && skip[i] {
			continue
		}
		s.dirty[i] = true
		s.corpFleet[i].ObserveLocal(actualUnused[i])
	}
	trainKinds(s.workers, s)
}

// ObserveSpan (corpScheduler override) implements SpanObserver with one
// ObserveAll per slot: the shared training stream is slot-major (every VM's
// slot-s sample trains before any slot-s+1 sample), and ObserveLocal stages
// one sample per kind at a time.
func (s *corpScheduler) ObserveSpan(rows [][]resource.Vector, skip []bool) {
	if s.corpFleet == nil {
		s.base.ObserveSpan(rows, skip)
		return
	}
	for _, row := range rows {
		s.ObserveAll(row, skip)
	}
}

// refreshBatchRows is the batched Refresh chunk size: how many dirty VMs'
// input rows are gathered into one ForwardBatchKind call. Large enough to
// amortize the per-call weight-slab streaming across many rows, small
// enough that the staging chunk (rows × Δ floats) stays L1/L2-resident
// next to the weights.
const refreshBatchRows = 256

// Refresh (corpScheduler override) runs the batched prediction pipeline:
//
//  1. collect the dirty VM indices;
//  2. PredictPrepare every dirty VM, each writing its normalized per-kind
//     DNN input rows into a contiguous per-kind staging slab at its own
//     position;
//  3. per resource kind: compact the rows that actually need a forward
//     (cold kinds drop out here) into a chunk buffer and run one
//     ForwardBatchKind per chunk, scattering outputs back by recorded
//     position;
//  4. PredictFinish every dirty VM (HMM correction, CI adjustment, Eq. 21
//     gate) into b.latest.
//
// Each VM's own pipeline runs in the same order as a per-VM Predict, so
// results are bit-identical to the per-VM path. Outputs are pre-filled with
// NaN so a failed batch forward degrades to PredictFinish's historical-mean
// fallback — the same fallback the per-VM path uses on a forward error.
// All staging buffers are reused across calls; steady-state refreshes
// perform no heap allocations.
func (s *corpScheduler) Refresh() {
	if s.corpFleet == nil {
		s.base.Refresh()
		return
	}
	idx := s.refreshIdx[:0]
	for i := range s.preds {
		if s.dirty[i] {
			s.dirty[i] = false
			idx = append(idx, i)
		}
	}
	s.refreshIdx = idx
	d := len(idx)
	if d == 0 {
		return
	}
	delta := s.brain.InputSlots()
	if cap(s.refreshNeed) < d {
		s.refreshNeed = make([][resource.NumKinds]bool, d)
		s.refreshOut = make([][resource.NumKinds]float64, d)
		s.refreshRows = make([][resource.NumKinds][]float64, d)
	}
	need := s.refreshNeed[:d]
	outs := s.refreshOut[:d]
	rows := s.refreshRows[:d]
	for k := range s.stageRows {
		if cap(s.stageRows[k]) < d*delta {
			s.stageRows[k] = make([]float64, d*delta)
		}
		s.stageRows[k] = s.stageRows[k][:d*delta]
	}
	nan := math.NaN()
	for pos, i := range idx {
		// rows[pos] is reused scratch owned by this position; a
		// function-local array would escape through PredictPrepare and
		// cost one heap allocation per dirty VM per refresh.
		r := &rows[pos]
		for k := range r {
			r[k] = s.stageRows[k][pos*delta : (pos+1)*delta]
		}
		need[pos] = s.corpFleet[i].PredictPrepare(r)
		outs[pos] = [resource.NumKinds]float64{nan, nan, nan}
	}
	for k := range resource.NumKinds {
		s.forwardKindBatched(resource.Kind(k), delta, need, outs)
	}
	for pos, i := range idx {
		s.latest[i] = s.corpFleet[i].PredictFinish(&outs[pos])
	}
}

// forwardKindBatched is phase 3 of the batched Refresh for one kind:
// compact the staged rows that need a forward into the kind's chunk
// buffer, run one batched forward per full chunk, and scatter each output
// back to its position's slot.
func (s *corpScheduler) forwardKindBatched(k resource.Kind, delta int, need [][resource.NumKinds]bool, outs [][resource.NumKinds]float64) {
	if cap(s.gatherIn[k]) < refreshBatchRows*delta {
		s.gatherIn[k] = make([]float64, refreshBatchRows*delta)
		s.gatherPos[k] = make([]int, refreshBatchRows)
	}
	in := s.gatherIn[k][:refreshBatchRows*delta]
	pos := s.gatherPos[k][:refreshBatchRows]
	stage := s.stageRows[k]
	count := 0
	flush := func() {
		if count == 0 {
			return
		}
		out, err := s.brain.ForwardBatchKind(k, in[:count*delta])
		if err == nil {
			for r := 0; r < count; r++ {
				outs[pos[r]][k] = out[r]
			}
		}
		count = 0
	}
	for p := range need {
		if !need[p][k] {
			continue
		}
		copy(in[count*delta:(count+1)*delta], stage[p*delta:(p+1)*delta])
		pos[count] = p
		count++
		if count == refreshBatchRows {
			flush()
		}
	}
	flush()
}

// ObserveAll implements BatchObserver for fleets of independent predictors:
// one serial pass in VM order.
func (b *base) ObserveAll(actualUnused []resource.Vector, skip []bool) {
	for i, p := range b.preds {
		if skip != nil && skip[i] {
			continue
		}
		b.dirty[i] = true
		p.Observe(actualUnused[i])
	}
}

// ObserveSpan implements SpanObserver for fleets of independent predictors.
// The span is fed VM-major: each predictor gets its k samples back to back
// (better cache locality than k slot-major sweeps). Each predictor's own
// observation sequence is unchanged and predictors share no state, so the
// result is bit-identical to k ObserveAll calls.
func (b *base) ObserveSpan(rows [][]resource.Vector, skip []bool) {
	if len(rows) == 0 {
		return
	}
	for i, p := range b.preds {
		if skip != nil && skip[i] {
			continue
		}
		b.dirty[i] = true
		for _, row := range rows {
			p.Observe(row[i])
		}
	}
}
