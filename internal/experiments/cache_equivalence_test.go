package experiments

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// TestWorkloadCacheEquivalence pins the snapshot cache's core contract:
// every figure series — both profiles, quick mode, including the faulted
// extension figure — is bit-identical whether runs share cached snapshots
// (production) or each run builds its own: the uncached side runs every
// config alone, after emptying the cache, through Options.RunBatch.
// It rides plain `go test ./...`, and so `make check`.
func TestWorkloadCacheEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-figure equivalence sweep is slow; run without -short")
	}
	cachedFigs, stats, err := runCachedCampaign()
	if err != nil {
		t.Fatalf("cached run: %v", err)
	}
	alone := func(cfgs []sim.Config) ([]*sim.Result, error) {
		results := make([]*sim.Result, len(cfgs))
		for i, cfg := range cfgs {
			workload.Default.Reset()
			res, err := sim.Run(cfg)
			if err != nil {
				return nil, err
			}
			results[i] = res
		}
		return results, nil
	}

	for _, profile := range goldenProfiles {
		cached, st := cachedFigs[profile], stats[profile]
		if st.Hits == 0 {
			t.Errorf("%s: cache recorded no hits across a full figure sweep", profile)
		}
		if st.Misses == 0 {
			t.Errorf("%s: cache recorded no misses (nothing was built?)", profile)
		}

		o := goldenOptions
		o.Profile = profile
		o.RunBatch = alone
		uncached, err := FigureSet(o)
		if err != nil {
			t.Fatalf("%s uncached run: %v", profile, err)
		}

		if len(cached) != len(uncached) {
			t.Fatalf("%s: %d figures cached vs %d uncached", profile, len(cached), len(uncached))
		}
		for i := range cached {
			compareFigures(t, profile.String(), cached[i], uncached[i])
		}
		t.Logf("%s: %d figures identical; cache stats %+v", profile, len(cached), st)
	}
}

// wallClock reports whether the registry marks the figure's Y as measured
// wall time (the paper's overhead Figs. 10/14). For these the tests pin
// structure (series labels, point counts, X values) and leave Y alone;
// every other figure is deterministic and compared bitwise.
func wallClock(id string) bool {
	s, err := Lookup(id)
	return err == nil && s.WallClock
}

// compareFigures asserts two figures carry exactly equal series: same
// labels, same point counts, and float64-bitwise-equal (==) X and Y values
// (X only for the wall-clock overhead figures).
func compareFigures(t *testing.T, profile string, a, b *Figure) {
	t.Helper()
	if a.ID != b.ID {
		t.Fatalf("%s: figure order differs: %s vs %s", profile, a.ID, b.ID)
	}
	if len(a.Series) != len(b.Series) {
		t.Errorf("%s %s: %d series cached vs %d uncached", profile, a.ID, len(a.Series), len(b.Series))
		return
	}
	for si, sa := range a.Series {
		sb := b.Series[si]
		if sa.Label != sb.Label {
			t.Errorf("%s %s: series %d label %q vs %q", profile, a.ID, si, sa.Label, sb.Label)
			continue
		}
		if len(sa.X) != len(sb.X) || len(sa.Y) != len(sb.Y) {
			t.Errorf("%s %s %s: point counts differ (%d/%d vs %d/%d)",
				profile, a.ID, sa.Label, len(sa.X), len(sa.Y), len(sb.X), len(sb.Y))
			continue
		}
		compareY := !wallClock(a.ID)
		for i := range sa.X {
			if sa.X[i] != sb.X[i] || (compareY && sa.Y[i] != sb.Y[i]) {
				t.Errorf("%s %s %s: point %d differs: (%v,%v) cached vs (%v,%v) uncached",
					profile, a.ID, sa.Label, i, sa.X[i], sa.Y[i], sb.X[i], sb.Y[i])
				break
			}
		}
	}
}
