package sim

// This file holds the reference oracles the equivalence suites compare
// production Run against. They enter through the same seam Run uses —
// newRunState → a loop → finalize — and drive the same runSlot, so the only
// thing that differs between the two sides of a comparison is what the test
// names: whether quiet spans are fast-forwarded, or whether the resident
// tables are armed.

// runSlots is the span-less reference loop: production's run with every
// slot stepped through runSlot, so it is the oracle for the quiescent-span
// fast-forward.
func (rs *runState) runSlots() error {
	for t := 0; t < rs.horizon; t++ {
		if err := rs.runSlot(t); err != nil {
			return err
		}
	}
	return nil
}

// oracle names one way of driving a run through the seam.
type oracle struct {
	// noSpans drives runSlots instead of the production loop.
	noSpans bool
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
	loop := rs.run
	if o.noSpans {
		loop = rs.runSlots
	}
	if err := loop(); err != nil {
		return nil, pathCounters{}, err
	}
	return rs.finalize(), rs.pathCounters, nil
}
