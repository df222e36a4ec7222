package sim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/scheduler"
	"repro/internal/workload"
)

// TestRunRejectsDegenerateConfig: a setting no run can honour is an error
// naming the field, not a silent run of something else. Before the check,
// η = 1 made Eq. 19's z infinite, the cold-VM bound 0·Inf = NaN, and the
// run reported a prediction error rate of 0.000; -faults 2, -surge 5 and
// -jobs -5 all ran, and -pms -4 ran the profile's default cluster.
// PrepareWorkload built and cached a snapshot for each of them.
func TestRunRejectsDegenerateConfig(t *testing.T) {
	tiny := func(edit func(*Config)) Config {
		cfg := Config{NumPMs: 2, NumVMs: 4, NumJobs: 5, Seed: 1,
			Scheduler: scheduler.Config{Scheme: scheduler.RCCR, Seed: 1}}
		edit(&cfg)
		return cfg
	}
	for _, tc := range []struct {
		field string
		edit  func(*Config)
	}{
		{"Scheduler.Corp.Eta", func(c *Config) { c.Scheduler.Corp.Eta = 1 }},
		{"Scheduler.Corp.Eta", func(c *Config) { c.Scheduler.Corp.Eta = 1.5 }},
		{"Scheduler.Corp.Eta", func(c *Config) { c.Scheduler.Corp.Eta = -0.2 }},
		{"Scheduler.Corp.Eta", func(c *Config) { c.Scheduler.Corp.Eta = math.NaN() }},
		{"Scheduler.RCCR.Eta", func(c *Config) { c.Scheduler.RCCR.Eta = 1 }},
		{"Scheduler.Corp.Pth", func(c *Config) { c.Scheduler.Corp.Pth = 2 }},
		{"Scheduler.Corp.Pth", func(c *Config) { c.Scheduler.Corp.Pth = -0.5 }},
		{"Epsilon", func(c *Config) { c.Epsilon = -0.1 }},
		{"Epsilon", func(c *Config) { c.Epsilon = math.Inf(1) }},
		{"Epsilon", func(c *Config) { c.Epsilon = math.NaN() }},
		{"Faults.VMCrashProb", func(c *Config) { c.Faults.VMCrashProb = 2 }},
		{"Faults.VMCrashProb", func(c *Config) { c.Faults.VMCrashProb = -1 }},
		{"Faults.PMCrashProb", func(c *Config) { c.Faults.PMCrashProb = 1.1 }},
		{"Faults.SurgeProb", func(c *Config) { c.Faults.SurgeProb = 5 }},
		{"Faults.DelayProb", func(c *Config) { c.Faults.DelayProb = math.NaN() }},
		{"NumPMs", func(c *Config) { c.NumPMs = -4 }},
		{"NumVMs", func(c *Config) { c.NumVMs = -1 }},
		{"NumJobs", func(c *Config) { c.NumJobs = -5 }},
		{"Warmup", func(c *Config) { c.Warmup = -1 }},
		{"ArrivalSpan", func(c *Config) { c.ArrivalSpan = -60 }},
		{"Drain", func(c *Config) { c.Drain = -2 }},
		{"LongJobs", func(c *Config) { c.LongJobs = -4 }},
		{"Faults.MeanDowntime", func(c *Config) { c.Faults.VMCrashProb, c.Faults.MeanDowntime = 0.01, -3 }},
		{"Workers", func(c *Config) { c.Workers = -3 }},
	} {
		_, err := Run(tiny(tc.edit))
		if err == nil {
			t.Errorf("%s: degenerate value accepted", tc.field)
		} else if !strings.Contains(err.Error(), tc.field+" = ") {
			t.Errorf("%s: error does not name the field and value: %v", tc.field, err)
		}
		// PrepareWorkload rejects the same config before building (RunMany
		// prepares every config of a sweep before running any).
		misses := workload.Default.Stats().Misses
		snap, err := PrepareWorkload(tiny(tc.edit))
		if err == nil || !strings.Contains(err.Error(), tc.field+" = ") || snap != nil {
			t.Errorf("%s: PrepareWorkload returned (%v, %v), want no snapshot and an error naming the field", tc.field, snap != nil, err)
		}
		if built := workload.Default.Stats().Misses - misses; built != 0 {
			t.Errorf("%s: PrepareWorkload built %d snapshots for a rejected config", tc.field, built)
		}
	}
	// The edges of the valid ranges, and zero as "default", still run.
	for _, edit := range []func(*Config){
		func(c *Config) {},
		func(c *Config) { c.Scheduler.Corp.Eta, c.Scheduler.RCCR.Eta, c.Scheduler.Corp.Pth = 0.9, 0.9, 1 },
		func(c *Config) { c.Faults.VMCrashProb, c.Faults.SurgeProb = 1, 1 },
	} {
		if _, err := Run(tiny(edit)); err != nil {
			t.Errorf("valid config rejected: %v", err)
		}
	}
}
