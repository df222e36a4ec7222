package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/workload"
)

// goldenOptions is the campaign the figure goldens and the cache
// equivalence share: quick mode, seed 11, one figure set per profile.
var goldenOptions = Options{Seed: 11, Quick: true}

var goldenProfiles = []cluster.Profile{cluster.ProfileCluster, cluster.ProfileEC2}

// cachedCampaign is the workload-cache-on side of goldenOptions, run once
// per test binary: TestWorkloadCacheEquivalence compares it with a
// cache-off run, TestFarmCampaignEquivalence with farm runs, and
// TestFigureGolden hashes it.
var cachedCampaign struct {
	once  sync.Once
	figs  map[cluster.Profile][]*Figure
	stats map[cluster.Profile]workload.Stats
	// extra holds the figures outside the campaign, run on the cluster
	// profile after the stats were taken.
	extra []*Figure
	err   error
}

func runCachedCampaign() (map[cluster.Profile][]*Figure, map[cluster.Profile]workload.Stats, error) {
	c := &cachedCampaign
	c.once.Do(func() {
		c.figs = map[cluster.Profile][]*Figure{}
		c.stats = map[cluster.Profile]workload.Stats{}
		for _, profile := range goldenProfiles {
			o := goldenOptions
			o.Profile = profile
			workload.Default.Reset()
			figs, err := FigureSet(o)
			if err != nil {
				c.err = err
				return
			}
			c.figs[profile] = figs
			c.stats[profile] = workload.Default.Stats()
		}
		for _, s := range Registry() {
			if s.Campaign {
				continue
			}
			f, err := s.Reproduce(goldenOptions)
			if err != nil {
				c.err = err
				return
			}
			c.extra = append(c.extra, f)
		}
	})
	return c.figs, c.stats, c.err
}

// figureDigest is the SHA-256 of a figure's series: ID, then per series
// the label, point count and the IEEE-754 bits of every X and Y. The
// registry's WallClock figures hash X only.
func figureDigest(f *Figure) string {
	h := sha256.New()
	var buf [8]byte
	str := func(s string) {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(s)))
		h.Write(buf[:])
		h.Write([]byte(s))
	}
	floats := func(xs []float64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(xs)))
		h.Write(buf[:])
		for _, x := range xs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	str(f.ID)
	hashY := !wallClock(f.ID)
	for _, s := range f.Series {
		str(s.Label)
		floats(s.X)
		if hashY {
			floats(s.Y)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFigureGolden pins the quick series of every registry figure — both
// profiles' campaign sets, and the figures outside the campaign on the
// cluster profile — to the digests committed in
// testdata/figure_golden.json (profile → figure ID → SHA-256): a registry
// row without a digest, a digest without a row, and a runner that returns
// another ID than its row's all fail. The file was
// recorded before the reference slot loop and the per-VM refresh left
// production, so it is what holds the figures still across refactors of the
// simulator core; on a mismatch the test logs the digests it computed in
// the file's own format.
func TestFigureGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-figure golden sweep is slow; run without -short")
	}
	if runtime.GOARCH != "amd64" {
		// math.Exp is per-architecture assembly, so the digests hold only on
		// the architecture that recorded them (as for bench/golden.json).
		t.Skipf("figure goldens were recorded on amd64; GOARCH is %s", runtime.GOARCH)
	}
	data, err := os.ReadFile(filepath.Join("testdata", "figure_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("figure_golden.json: %v", err)
	}
	figs, _, err := runCachedCampaign()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]map[string]string{}
	for _, profile := range goldenProfiles {
		digests := map[string]string{}
		for _, f := range figs[profile] {
			digests[f.ID] = figureDigest(f)
		}
		got[profile.String()] = digests
	}
	for _, f := range cachedCampaign.extra {
		got[goldenOptions.Profile.String()][f.ID] = figureDigest(f)
	}
	ok := true
	for _, s := range Registry() {
		profile := s.Profile
		if profile == AnyProfile {
			profile = goldenOptions.Profile
		}
		if got[profile.String()][s.ID] == "" {
			t.Errorf("%s %s: the registry's runner returned no figure of that ID", profile, s.ID)
			ok = false
		}
	}
	for profile, digests := range want {
		if len(got[profile]) != len(digests) {
			t.Errorf("%s: %d figures, golden has %d", profile, len(got[profile]), len(digests))
			ok = false
		}
		for id, d := range digests {
			if got[profile][id] != d {
				t.Errorf("%s %s: digest %.16s…, golden %.16s…", profile, id, got[profile][id], d)
				ok = false
			}
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d profiles, golden has %d", len(got), len(want))
		ok = false
	}
	if !ok {
		out, _ := json.MarshalIndent(got, "", "  ")
		t.Logf("computed digests:\n%s", out)
	}
}
