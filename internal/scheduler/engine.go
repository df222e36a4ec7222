package scheduler

import (
	"sync"

	"repro/internal/resource"
)

// This file is the prediction engine: the per-slot observe pass and the one
// place a run goes concurrent. Every per-VM pass, Refresh included
// (base.Refresh, one Predict per dirty VM for every scheme), is a serial
// loop in ascending VM order. The exception is CORP's training feed: the
// shared brain keeps one network, replay ring and RNG per resource kind, and
// the kinds share nothing, so at Workers > 1 each kind's staged samples are
// fed on a goroutine of its own (trainKinds), still in ascending VM order
// within the kind. Any worker count yields bit-identical figures.

// BatchObserver is the part of Scheduler that ingests a whole slot's
// observations at once. skip[i] (optional, may be nil) marks VMs
// whose sample must not be fed this slot (e.g. down VMs); semantics are
// identical to calling Observe(i, actualUnused[i]) for every non-skipped
// VM in ascending order.
type BatchObserver interface {
	ObserveAll(actualUnused []resource.Vector, skip []bool)
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
