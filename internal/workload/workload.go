// Package workload builds and caches immutable workload snapshots: the
// fully generated resident, short-job, history-resident and long-job traces
// for one (seed, workload-config) key.
//
// The paper's evaluation compares four schemes on the *same* workload at
// every sweep point, and the SLO figures replicate each point over several
// seeds — so within one figure the identical trace is consumed by many
// simulation runs. A Snapshot lets the harness generate that trace exactly
// once and share it read-only across all of them (the classic "build the
// dataset once, share it across trainers" optimisation), instead of paying
// the generator schemes × replications times for byte-identical inputs.
//
// Immutability contract: a Snapshot is immutable after Build returns. The
// job specs and slices it hands out are shared by every run that holds the
// snapshot, concurrently; callers must never write to them. The simulator
// honours this by wrapping each spec in a fresh per-run job.Runtime and
// keeping every run-local adjustment (arrival offsets, placement, progress)
// on the runtime. The only internal mutation is the lazily generated
// history trace, which is guarded by a sync.Once and deterministic, so it
// is observationally immutable.
//
// Keying: snapshots are content-addressed by Params.Key, a SHA-256 over a
// canonical binary encoding of every input that influences the generated
// bytes (generator configs with the run seed already folded in, plus the VM
// capacity list). Distinct inputs therefore never share a snapshot, and
// identical inputs always do — the property the cache-equivalence tests
// pin.
package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync"

	"repro/internal/job"
	"repro/internal/resource"
	"repro/internal/trace"
	"repro/internal/workpool"
)

// Job-ID bases for the generated populations, disjoint so IDs never collide
// with the short jobs' sequential IDs within one simulation.
const (
	// ResidentFirstID is the ID of the first resident job.
	ResidentFirstID = job.ID(1_000_000)
	// HistoryFirstID is the ID of the first history resident.
	HistoryFirstID = job.ID(2_000_000)
	// LongFirstID is the ID of the first long-lived service job.
	LongFirstID = job.ID(3_000_000)
)

// History-trace shape: the CORP pre-deployment training feed ("we first
// used the deep learning algorithm to predict ... based on the historical
// resource usage data") uses sibling resident series from a salted seed
// stream, bounded to a small fleet.
const (
	// HistoryHorizon is the number of slots of history per sibling.
	HistoryHorizon = 240
	// HistorySeedSalt decorrelates the history stream from the live
	// residents generated for the same run seed.
	HistorySeedSalt = 0x415
	// MaxHistoryVMs bounds the history fleet size.
	MaxHistoryVMs = 24
)

// Params captures every input that determines the generated workload
// bytes. The generator configs are the *resolved* ones — run seed already
// folded in, defaults that depend on the cluster (VM capacity) already
// applied — so equal Params always generate equal traces.
type Params struct {
	// VMCaps is the per-VM capacity list of the simulated cluster; the
	// residents reserve shares of it and the first entry seeds the
	// job-generator capacity defaults.
	VMCaps []resource.Vector

	// Residents is the resolved resident-trace config (seed folded,
	// horizon raised to the run length).
	Residents trace.ResidentConfig

	// Jobs is the resolved short-job config (seed folded, NumJobs,
	// ArrivalSpan and VMCapacity set). NumJobs == 0 generates no short
	// jobs (the explicit-trace path).
	Jobs trace.Config

	// Long is the resolved long-job config; NumJobs == 0 disables the
	// long-lived population entirely.
	Long trace.LongJobConfig
}

// Key returns the content address of the workload these Params generate:
// a hex SHA-256 of the canonical encoding. Equal Params have equal keys;
// any differing field yields a different key.
func (p Params) Key() string {
	h := sha256.New()
	buf := make([]byte, 8)
	w := func(vs ...float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
			h.Write(buf)
		}
	}
	wi := func(vs ...int64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf, uint64(v))
			h.Write(buf)
		}
	}
	// Version tag: bump when the encoding or the generators' seed
	// derivations change shape.
	h.Write([]byte("workload-v1"))
	wi(int64(len(p.VMCaps)))
	for _, c := range p.VMCaps {
		for k := 0; k < resource.NumKinds; k++ {
			w(c[k])
		}
	}
	r := p.Residents
	wi(r.Seed, int64(r.Horizon))
	w(r.ReservedShare, r.MeanUseShare, r.Fluctuation, r.JumpProb)
	j := p.Jobs
	wi(j.Seed, int64(j.NumJobs), int64(j.ArrivalSpan), int64(j.Arrivals), int64(j.MeanDuration))
	w(j.SLOFactor, j.Fluctuation)
	for k := 0; k < resource.NumKinds; k++ {
		w(j.VMCapacity[k])
	}
	w(j.ClassWeights[0], j.ClassWeights[1], j.ClassWeights[2], j.ClassWeights[3])
	l := p.Long
	wi(l.Seed, int64(l.NumJobs), int64(l.ArrivalSpan), int64(l.MinDuration), int64(l.MaxDuration))
	w(l.ReservedShare, l.MeanUseShare, l.SLOFactor)
	for k := 0; k < resource.NumKinds; k++ {
		w(l.VMCapacity[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Snapshot bundles one fully generated workload: immutable after Build,
// safe to share read-only across concurrent simulation runs.
type Snapshot struct {
	params Params
	key    string

	residents []*job.Job
	shortJobs []*job.Job
	longJobs  []*job.Job

	tables *ResidentTables

	histOnce sync.Once
	history  []*job.Job
	histErr  error

	bytes int64
}

// buildMinVectors is the size floor of the concurrent build: a snapshot
// estimated to hold fewer usage vectors (Params.vectors) generates its
// populations and tables inline on the calling goroutine, as below it the
// goroutine and closure overhead outweighs the overlap. Every Table II and
// quick-figure workload (at most ~62 k vectors) falls below it; the 500-PM
// scale smoke (~456 k) and the 5000-PM scale profile (~14 M) do not.
const buildMinVectors = 1 << 18

// vectors estimates how many usage vectors the snapshot holds: one
// Horizon-long series per resident and one MeanDuration-long series (at
// least one slot) per short job. The long jobs are too few to count.
func (p Params) vectors() int {
	return len(p.VMCaps)*p.Residents.Horizon + p.Jobs.NumJobs*max(p.Jobs.MeanDuration, 1)
}

// numGenerators is the number of independent generator tasks in a Build.
const numGenerators = 3

// generate runs generator task i: 0 the residents, 1 the short jobs, 2 the
// long jobs. Each draws from its own seeded RNG stream and writes only its
// own field, so the three may run in any order or at once and produce the
// same bytes.
func (s *Snapshot) generate(i int) (err error) {
	p := s.params
	switch i {
	case 0:
		if s.residents, err = trace.GenerateResidents(p.Residents, p.VMCaps, ResidentFirstID); err != nil {
			return fmt.Errorf("workload: residents: %w", err)
		}
	case 1:
		if s.shortJobs, err = trace.GenerateShortJobs(p.Jobs); err != nil {
			return fmt.Errorf("workload: short jobs: %w", err)
		}
	case 2:
		if p.Long.NumJobs > 0 {
			if s.longJobs, err = trace.GenerateLongJobs(p.Long, LongFirstID); err != nil {
				return fmt.Errorf("workload: long jobs: %w", err)
			}
		}
	}
	return nil
}

// Build generates the workload for the given Params. The history trace is
// generated lazily on first use (only CORP consumes it), guarded by a
// sync.Once so concurrent runs share one deterministic generation. The
// resident tables are the last step: a population without one shared
// usage period is an error.
//
// At or above buildMinVectors the three generators, and then the tables'
// phase ranges, run as workpool.Do tasks, on as many slots as the shared
// budget grants; below it, or with no slot to spare, they run inline in
// order. The snapshot is the same bit for bit either way, and the error,
// if any, is the first in that order.
func Build(p Params) (*Snapshot, error) {
	if len(p.VMCaps) == 0 {
		return nil, fmt.Errorf("workload: no VM capacities")
	}
	// Deep-copy the caps so later caller mutations cannot skew the lazy
	// history generation or the recorded params.
	caps := make([]resource.Vector, len(p.VMCaps))
	copy(caps, p.VMCaps)
	p.VMCaps = caps

	s := &Snapshot{params: p, key: p.Key()}
	fanOut := p.vectors() >= buildMinVectors
	if !fanOut {
		for i := range numGenerators {
			if err := s.generate(i); err != nil {
				return nil, err
			}
		}
	} else {
		var errs [numGenerators]error
		workpool.Do(numGenerators, func(i int) { errs[i] = s.generate(i) })
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	var err error
	if s.tables, err = buildResidentTables(s.residents, fanOut); err != nil {
		return nil, err
	}
	s.bytes = jobsBytes(s.residents) + jobsBytes(s.shortJobs) + jobsBytes(s.longJobs) + s.tables.Bytes()
	return s, nil
}

// Key returns the snapshot's content address.
func (s *Snapshot) Key() string { return s.key }

// Params returns a copy of the inputs the snapshot was built from (the
// VMCaps slice is shared read-only).
func (s *Snapshot) Params() Params { return s.params }

// Residents returns the per-VM resident jobs. Read-only; one entry per VM
// capacity in Params.VMCaps.
func (s *Snapshot) Residents() []*job.Job { return s.residents }

// ShortJobs returns the short-lived job specs, sorted by arrival slot with
// arrivals in [0, ArrivalSpan) — the simulator applies its warmup offset on
// per-run runtime state, never on these shared specs. Read-only.
func (s *Snapshot) ShortJobs() []*job.Job { return s.shortJobs }

// LongJobs returns the long-lived service job specs (nil when
// Params.Long.NumJobs == 0). Read-only.
func (s *Snapshot) LongJobs() []*job.Job { return s.longJobs }

// History returns the CORP pre-deployment history residents and their
// horizon in slots, generating them on first call. Read-only.
func (s *Snapshot) History() ([]*job.Job, int, error) {
	s.histOnce.Do(func() {
		histCfg := s.params.Residents
		histCfg.Seed ^= HistorySeedSalt
		histCfg.Horizon = HistoryHorizon
		n := len(s.params.VMCaps)
		if n > MaxHistoryVMs {
			n = MaxHistoryVMs
		}
		s.history, s.histErr = trace.GenerateResidents(histCfg, s.params.VMCaps[:n], HistoryFirstID)
		if s.histErr != nil {
			s.histErr = fmt.Errorf("workload: history residents: %w", s.histErr)
		}
	})
	return s.history, HistoryHorizon, s.histErr
}

// Bytes returns the approximate payload size of the generated traces
// (usage series plus spec overhead) and the resident tables, excluding the
// lazy history.
func (s *Snapshot) Bytes() int64 { return s.bytes }

// jobsBytes approximates the retained size of a generated job population.
func jobsBytes(jobs []*job.Job) int64 {
	const vecBytes = resource.NumKinds * 8
	const specOverhead = 64 // ID, class, arrival, duration, request, header
	var n int64
	for _, j := range jobs {
		n += specOverhead + int64(len(j.Usage))*vecBytes
	}
	return n
}
