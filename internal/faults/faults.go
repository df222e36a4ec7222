// Package faults is the simulator's seeded, deterministic fault-injection
// layer. The reproduction's whole argument is that opportunistic
// placements turn prediction error into SLO violations; a fault-free
// cluster understates that risk, so this package models the three
// disturbance classes provisioning simulators need to be credible:
//
//   - crash-and-recover failures of VMs and whole PMs (every short-lived
//     job on a failed VM is killed mid-run and must be re-placed);
//   - resident demand surges that shock the allocated-but-unused pool the
//     opportunistic schemes harvest;
//   - transient scheduler/RPC delays that inflate the allocation latency
//     of Figs. 10/14.
//
// All injection is driven by one rand.Rand seeded from Config.Seed and
// advanced in a fixed order (PMs, then VMs, then surges, then delays, each
// in index order), so a run with the same seed replays the exact same
// fault schedule — bit-for-bit, on any machine.
package faults

import "math/rand"

// Config parameterizes fault injection for one run. The zero value
// disables injection entirely (Enabled reports false and the simulator
// takes its fault-free path untouched).
type Config struct {
	// Seed drives the injector's RNG; the simulator XORs the run seed in
	// so the fault schedule varies with the workload seed by default.
	Seed int64

	// VMCrashProb is the per-slot probability that an up VM crashes.
	VMCrashProb float64
	// PMCrashProb is the per-slot probability that a PM fails, taking
	// every VM it hosts down together.
	PMCrashProb float64
	// MeanDowntime is the mean repair time in slots; actual downtimes are
	// drawn uniformly from [1, 2·MeanDowntime−1]. Zero defaults to 25
	// (≈4 minutes of 10-second slots).
	MeanDowntime int

	// SurgeProb is the per-slot probability that an up VM's resident
	// enters a demand surge, shrinking the opportunistic pool there.
	SurgeProb float64
	// SurgeFactor scales resident demand during a surge (jittered ±25 %
	// per event, capped at the reservation). Zero defaults to 1.8.
	SurgeFactor float64
	// SurgeDuration is the surge length in slots. Zero defaults to 12
	// (two prediction windows).
	SurgeDuration int

	// DelayProb is the per-slot probability of a transient scheduler/RPC
	// stall charged to the run's overhead.
	DelayProb float64
	// DelayMicros is the stall cost in microseconds. Zero defaults to
	// 5000 (a control-plane hiccup, not an outage).
	DelayMicros float64

	// MaxRetries bounds how many times an evicted job is re-queued before
	// it is abandoned. Zero defaults to 3.
	MaxRetries int
	// RetryBackoff is the base re-queue delay in slots; the n-th retry of
	// a job waits RetryBackoff·2^(n−1) slots, capped at MaxBackoff. Zero
	// defaults to 2.
	RetryBackoff int
	// MaxBackoff caps the exponential backoff. Zero defaults to 16.
	MaxBackoff int
}

// Enabled reports whether the configuration injects anything at all.
func (c Config) Enabled() bool {
	return c.VMCrashProb > 0 || c.PMCrashProb > 0 || c.SurgeProb > 0 || c.DelayProb > 0
}

// WithDefaults fills the zero-valued knobs with their documented defaults.
func (c Config) WithDefaults() Config {
	if c.MeanDowntime <= 0 {
		c.MeanDowntime = 25
	}
	if c.SurgeFactor <= 0 {
		c.SurgeFactor = 1.8
	}
	if c.SurgeDuration <= 0 {
		c.SurgeDuration = 12
	}
	if c.DelayMicros <= 0 {
		c.DelayMicros = 5000
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 2
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 16
	}
	return c
}

// Backoff returns the re-queue delay in slots for a job's n-th retry
// (n counted from 1): RetryBackoff·2^(n−1), capped at MaxBackoff.
func (c Config) Backoff(retry int) int {
	if retry < 1 {
		retry = 1
	}
	d := c.RetryBackoff
	for i := 1; i < retry; i++ {
		d *= 2
		if d >= c.MaxBackoff {
			return c.MaxBackoff
		}
	}
	if d > c.MaxBackoff {
		d = c.MaxBackoff
	}
	return d
}

// SlotEvents is everything the injector decided for one slot.
type SlotEvents struct {
	// Crashed lists VMs that went down this slot, in index order.
	Crashed []int
	// Recovered lists VMs that came back up this slot, in index order.
	Recovered []int
	// PMCrashes counts whole-PM failures this slot (their VMs also
	// appear in Crashed).
	PMCrashes int
	// Surge holds the per-VM resident demand multiplier (1 when calm),
	// indexed by VM. Valid until the next Advance call.
	Surge []float64
	// DelayMicros is the transient scheduler/RPC stall to charge this
	// slot (0 when none fired).
	DelayMicros float64
}

// Injector produces the fault schedule for one simulation run. It is not
// safe for concurrent use; each run owns its injector.
type Injector struct {
	cfg Config
	rng *rand.Rand
	// pmVMs[pm] lists the VMs PM pm hosts, ascending; built once, and only
	// when PMs can crash, so a PM failure touches just its own VMs.
	pmVMs [][]int

	downUntil  []int // per VM: slot at which it recovers; -1 = up
	surgeUntil []int // per VM: last slot (exclusive) of the active surge
	surgeFac   []float64

	ev SlotEvents
}

// NewInjector builds an injector over a cluster topology given as the
// VM-index → PM-index mapping. The config's zero knobs take defaults.
func NewInjector(cfg Config, vmToPM []int) *Injector {
	cfg = cfg.WithDefaults()
	in := &Injector{
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed ^ 0xfa17)),
		downUntil:  make([]int, len(vmToPM)),
		surgeUntil: make([]int, len(vmToPM)),
		surgeFac:   make([]float64, len(vmToPM)),
	}
	for v := range in.downUntil {
		in.downUntil[v] = -1
		in.surgeFac[v] = 1
	}
	in.ev.Surge = in.surgeFac
	if cfg.PMCrashProb > 0 {
		for v, pm := range vmToPM {
			for pm >= len(in.pmVMs) {
				in.pmVMs = append(in.pmVMs, nil)
			}
			in.pmVMs[pm] = append(in.pmVMs[pm], v)
		}
	}
	return in
}

// Config returns the injector's effective (defaulted) configuration.
func (in *Injector) Config() Config { return in.cfg }

// Advance rolls the injector to slot t and returns the slot's events. It
// must be called once per slot with strictly increasing t. The returned
// SlotEvents (including Surge) is only valid until the next call.
func (in *Injector) Advance(t int) SlotEvents {
	in.ev.Crashed = in.ev.Crashed[:0]
	in.ev.Recovered = in.ev.Recovered[:0]
	in.ev.PMCrashes = 0
	in.ev.DelayMicros = 0

	// 1. Repairs complete first so a slot's crash draws see the VM up.
	for v := range in.downUntil {
		if in.downUntil[v] >= 0 && in.downUntil[v] <= t {
			in.downUntil[v] = -1
			in.ev.Recovered = append(in.ev.Recovered, v)
		}
	}

	// 2. Whole-PM failures take every hosted VM down together.
	for _, hosted := range in.pmVMs {
		if in.rng.Float64() >= in.cfg.PMCrashProb {
			continue
		}
		in.ev.PMCrashes++
		dt := in.downtime()
		for _, v := range hosted {
			if in.downUntil[v] < 0 {
				in.crash(v, t+dt)
			}
		}
	}

	// 3. Independent single-VM crashes.
	if in.cfg.VMCrashProb > 0 {
		for v := range in.downUntil {
			if in.downUntil[v] >= 0 {
				continue
			}
			if in.rng.Float64() < in.cfg.VMCrashProb {
				in.crash(v, t+in.downtime())
			}
		}
	}

	// 4. Resident demand surges on up VMs.
	if in.cfg.SurgeProb > 0 {
		for v := range in.downUntil {
			if in.surgeUntil[v] > t {
				continue // surge still running
			}
			in.surgeFac[v] = 1
			if in.downUntil[v] >= 0 {
				continue
			}
			if in.rng.Float64() < in.cfg.SurgeProb {
				in.surgeUntil[v] = t + in.cfg.SurgeDuration
				in.surgeFac[v] = in.cfg.SurgeFactor * (0.75 + 0.5*in.rng.Float64())
			}
		}
	}

	// 5. Transient control-plane stall.
	if in.cfg.DelayProb > 0 && in.rng.Float64() < in.cfg.DelayProb {
		in.ev.DelayMicros = in.cfg.DelayMicros
	}
	return in.ev
}

// crash marks VM v down until the given slot and clears any surge there.
func (in *Injector) crash(v, until int) {
	in.downUntil[v] = until
	in.surgeUntil[v] = 0
	in.surgeFac[v] = 1
	in.ev.Crashed = append(in.ev.Crashed, v)
}

// downtime draws a repair time uniformly from [1, 2·MeanDowntime−1], so
// the mean equals MeanDowntime.
func (in *Injector) downtime() int {
	span := 2*in.cfg.MeanDowntime - 1
	if span <= 1 {
		return 1
	}
	return 1 + in.rng.Intn(span)
}
