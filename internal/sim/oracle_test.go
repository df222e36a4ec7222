package sim

// This file holds the reference oracles the equivalence suites compare
// production Run against. They enter through the same seam Run uses —
// newRunState → a loop → finalize — and drive the same phase methods, so
// the only thing that differs between the two sides of a comparison is
// what the test names: the loop, or whether the resident tables are armed.

// runSlotLoop is the reference fixed-tick loop: every phase is offered at
// every slot, in eventKind order. It has no event queue and no span
// machinery, so it is the oracle for both the event loop and the
// quiescent-span fast-forward.
func (rs *runState) runSlotLoop() error {
	for t := 0; t < rs.horizon; t++ {
		if rs.inj != nil {
			rs.advanceFaults(t)
		}
		rs.placeLongArrivals(t)
		rs.observe(t)
		if t%rs.window == 0 {
			rs.refreshWindow(t)
		}
		rs.admitArrivals(t)
		rs.admitRetries(t)
		if len(rs.queue) > 0 {
			if err := rs.placeQueued(t); err != nil {
				return err
			}
		}
		rs.executeSlot(t)
	}
	return nil
}

// oracle names one way of driving a run through the seam.
type oracle struct {
	// slotLoop drives runSlotLoop instead of the production event loop.
	slotLoop bool
	// recompute drops the resident tables, forcing every slot's telemetry
	// onto the per-VM recompute path production takes for non-periodic
	// populations (and, with no tables, no span can form).
	recompute bool
}

// run executes cfg through the seam and returns the result plus the run's
// path counters (slots the span fast-forward replayed, telemetry slots
// aliased / patched / recomputed). The zero oracle is production Run, step
// for step.
func (o oracle) run(cfg Config) (*Result, pathCounters, error) {
	rs, err := newRunState(cfg)
	if err != nil {
		return nil, pathCounters{}, err
	}
	defer rs.release()
	if o.recompute {
		rs.tables = nil
	}
	loop := rs.runEventLoop
	if o.slotLoop {
		loop = rs.runSlotLoop
	}
	if err := loop(); err != nil {
		return nil, pathCounters{}, err
	}
	return rs.finalize(), rs.pathCounters, nil
}
