package scheduler

import (
	"math"

	"repro/internal/predict"
	"repro/internal/resource"
	"repro/internal/workpool"
)

// This file is the intra-run parallel prediction engine: it shards the
// per-VM predictor fleet across a bounded worker pool for the per-slot
// Observe fan-out and the per-window Refresh pass. Results are written
// positionally (b.latest[i], b.dirty[i]), and the only shared mutable
// state — the CORP brain — is only ever touched from the ordered per-kind
// flush phase, so any worker count yields bit-identical figures.

// BatchObserver is the part of Scheduler that ingests a whole slot's
// observations at once, fanning the per-VM predictor updates across the
// engine's workers. skip[i] (optional, may be nil) marks VMs
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

// observeChunk is how many consecutive VMs one work-stealing grab of the
// engine's fan-outs covers; per-VM costs are uneven (HMM refits, signature
// refreshes), so it is kept small.
const observeChunk = 4

// initEngine wires the parallel engine after the per-VM predictors exist:
// it caches the Sharded view of each predictor (so the hot loops skip
// per-call type assertions) and allocates the dirty bits.
// All VMs start dirty so the first Refresh predicts everywhere.
func (b *base) initEngine(workers int) {
	b.workers = workers
	b.dirty = make([]bool, len(b.preds))
	b.sharded = make([]predict.Sharded, len(b.preds))
	anySharded := false
	for i, p := range b.preds {
		b.dirty[i] = true
		if s, ok := p.(predict.Sharded); ok {
			b.sharded[i] = s
			anySharded = true
		}
	}
	b.anySharded = anySharded
}

// initEngine (corpScheduler override) wires the base engine, then caches
// the concrete *CorpPredictor views the batched Refresh needs. The oracle
// variant (nil brain, oracle predictors) keeps the per-VM base path.
func (s *corpScheduler) initEngine(workers int) {
	s.base.initEngine(workers)
	if s.brain == nil {
		return
	}
	s.corpPreds = make([]*predict.CorpPredictor, len(s.preds))
	for i, p := range s.preds {
		s.corpPreds[i] = p.(*predict.CorpPredictor)
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
//  1. collect the dirty VM indices (serial, cheap);
//  2. PredictPrepare every dirty VM in parallel, each writing its
//     normalized per-kind DNN input rows into a contiguous per-kind
//     staging slab at its own position;
//  3. per resource kind (kinds in parallel, each kind serial): compact
//     the rows that actually need a forward (cold kinds drop out here)
//     into a chunk buffer and run one ForwardBatchKind per chunk,
//     scattering outputs back by recorded position;
//  4. PredictFinish every dirty VM in parallel (HMM correction, CI
//     adjustment, Eq. 21 gate) into b.latest positionally.
//
// Every write in phases 2–4 lands at an index owned by one VM (or, in
// phase 3, one (VM, kind) slot), and each VM's own pipeline runs in the
// same order as a per-VM Predict, so results are bit-identical to the
// per-VM path at any worker count. Outputs are pre-filled with NaN so a
// failed batch forward degrades to PredictFinish's historical-mean
// fallback — the same fallback the per-VM path uses on a forward error.
// All staging buffers are reused across calls; steady-state refreshes
// perform no heap allocations.
func (s *corpScheduler) Refresh() {
	if s.corpPreds == nil {
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
	workpool.For(s.workers, d, observeChunk, func(pos int) {
		// rows[pos] is reused scratch owned by this position; a
		// function-local array would escape through PredictPrepare and
		// cost one heap allocation per dirty VM per refresh.
		r := &rows[pos]
		for k := range r {
			r[k] = s.stageRows[k][pos*delta : (pos+1)*delta]
		}
		need[pos] = s.corpPreds[idx[pos]].PredictPrepare(r)
		outs[pos] = [resource.NumKinds]float64{nan, nan, nan}
	})
	workpool.For(s.workers, resource.NumKinds, observeChunk, func(k int) {
		s.forwardKindBatched(resource.Kind(k), delta, need, outs)
	})
	workpool.For(s.workers, d, observeChunk, func(pos int) {
		s.latest[idx[pos]] = s.corpPreds[idx[pos]].PredictFinish(&outs[pos])
	})
}

// forwardKindBatched is phase 3 of the batched Refresh for one kind:
// compact the staged rows that need a forward into the kind's chunk
// buffer, run one batched forward per full chunk, and scatter each output
// back to its position's slot. Touches only kind-k brain state and
// kind-k/per-position slots, so distinct kinds run concurrently.
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

// ObserveAll implements BatchObserver. The work splits into two phases:
// a VM-local phase (tracker updates plus staged training samples) that
// runs concurrently because each predictor's state is disjoint, and a
// shared phase that feeds staged samples into shared state (the CORP
// brain) — sharded per resource kind, each kind's stream serialized in
// ascending VM order. Both phases visit VMs positionally, so the result
// is bit-identical to serial per-VM Observe calls at any worker count.
func (b *base) ObserveAll(actualUnused []resource.Vector, skip []bool) {
	n := len(b.preds)
	workpool.For(b.workers, n, observeChunk, func(i int) {
		if skip != nil && skip[i] {
			return
		}
		b.dirty[i] = true
		if s := b.sharded[i]; s != nil {
			s.ObserveLocal(actualUnused[i])
		} else {
			b.preds[i].Observe(actualUnused[i])
		}
	})
	if !b.anySharded {
		return
	}
	workpool.For(b.workers, resource.NumKinds, observeChunk, func(k int) {
		kind := resource.Kind(k)
		for i := 0; i < n; i++ {
			if skip != nil && skip[i] {
				continue
			}
			if s := b.sharded[i]; s != nil {
				s.FlushShared(kind)
			}
		}
	})
}

// ObserveSpan implements SpanObserver. For a fleet of independent
// predictors the span is fed VM-major: one parallel pass hands each
// predictor its k samples back to back (better cache locality than k
// slot-major sweeps, and one work-stealing dispatch instead of k). Each
// predictor's own observation sequence is unchanged, and predictors share
// no state, so the result is bit-identical to k ObserveAll calls.
//
// A sharded fleet (the CORP brain) is the exception: FlushShared calls for
// one kind must stay serialized slot-major in VM order, and ObserveLocal
// stages exactly one pending sample, so the span falls back to per-slot
// ObserveAll — the shared training stream is order-sensitive and the
// per-slot dispatch is what guarantees its order.
func (b *base) ObserveSpan(rows [][]resource.Vector, skip []bool) {
	if len(rows) == 0 {
		return
	}
	if b.anySharded {
		for _, row := range rows {
			b.ObserveAll(row, skip)
		}
		return
	}
	workpool.For(b.workers, len(b.preds), observeChunk, func(i int) {
		if skip != nil && skip[i] {
			return
		}
		b.dirty[i] = true
		p := b.preds[i]
		for _, row := range rows {
			p.Observe(row[i])
		}
	})
}
