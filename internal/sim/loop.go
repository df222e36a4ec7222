package sim

// This file is the simulator loop, the whole driver of a run. The run
// advances in the paper's discrete 10-second slots (Section IV), and
// runSlot offers every phase at slot t in one fixed order.

// run drives the run from slot 0 to the horizon.
func (rs *runState) run() error {
	for t := 0; t < rs.horizon; t++ {
		if err := rs.runSlot(t); err != nil {
			return err
		}
	}
	return nil
}

// runSlot runs slot t's phases in order: fault draw (only under an
// injector), long arrivals, telemetry, the window's refresh, short
// arrivals and released retries into the queue, placement while any job
// queues, and execute.
func (rs *runState) runSlot(t int) error {
	if rs.inj != nil {
		rs.advanceFaults(t)
	}
	rs.placeLongArrivals(t)
	rs.observe(t)
	if rs.checkSlot != nil {
		rs.checkSlot(t, rs.residentUse, rs.unused)
	}
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
	return nil
}
