package workload

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/resource"
	"repro/internal/trace"
)

func testParams(seed int64) Params {
	caps := make([]resource.Vector, 8)
	for i := range caps {
		caps[i] = resource.Vector{4, 16, 180}
	}
	return Params{
		VMCaps: caps,
		Residents: trace.ResidentConfig{
			Seed:          seed,
			Horizon:       300,
			ReservedShare: 0.6,
			MeanUseShare:  0.35,
		},
		Jobs: trace.Config{
			Seed:        seed,
			NumJobs:     50,
			ArrivalSpan: 60,
			VMCapacity:  resource.Vector{4, 16, 180},
		},
		Long: trace.LongJobConfig{
			Seed:        seed,
			NumJobs:     3,
			ArrivalSpan: 60,
			VMCapacity:  resource.Vector{4, 16, 180},
		},
	}
}

func TestKeyDeterministicAndDistinct(t *testing.T) {
	base := testParams(42)
	if base.Key() != base.Key() {
		t.Fatal("Key not deterministic")
	}
	if got := testParams(42).Key(); got != base.Key() {
		t.Fatalf("identical params produced different keys: %s vs %s", got, base.Key())
	}

	// Every single-field perturbation must change the key.
	variants := map[string]Params{
		"resident seed": func() Params { p := testParams(42); p.Residents.Seed++; return p }(),
		"job seed":      func() Params { p := testParams(42); p.Jobs.Seed++; return p }(),
		"long seed":     func() Params { p := testParams(42); p.Long.Seed++; return p }(),
		"horizon":       func() Params { p := testParams(42); p.Residents.Horizon++; return p }(),
		"num jobs":      func() Params { p := testParams(42); p.Jobs.NumJobs++; return p }(),
		"arrivals":      func() Params { p := testParams(42); p.Jobs.Arrivals = trace.ArrivalBursty; return p }(),
		"class weights": func() Params { p := testParams(42); p.Jobs.ClassWeights[1] = 0.9; return p }(),
		"fluctuation":   func() Params { p := testParams(42); p.Residents.Fluctuation = 0.7; return p }(),
		"long jobs":     func() Params { p := testParams(42); p.Long.NumJobs = 0; return p }(),
		"vm count":      func() Params { p := testParams(42); p.VMCaps = p.VMCaps[:4]; return p }(),
		"vm capacity":   func() Params { p := testParams(42); p.VMCaps[0] = resource.Vector{8, 32, 360}; return p }(),
	}
	seen := map[string]string{base.Key(): "base"}
	for name, p := range variants {
		k := p.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %q collides with %q", name, prev)
		}
		seen[k] = name
	}
}

func TestBuildPopulations(t *testing.T) {
	p := testParams(7)
	s, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Key() != p.Key() {
		t.Errorf("snapshot key %s != params key %s", s.Key(), p.Key())
	}
	if got := len(s.Residents()); got != len(p.VMCaps) {
		t.Errorf("residents = %d, want %d", got, len(p.VMCaps))
	}
	if got := len(s.ShortJobs()); got != p.Jobs.NumJobs {
		t.Errorf("short jobs = %d, want %d", got, p.Jobs.NumJobs)
	}
	if got := len(s.LongJobs()); got != p.Long.NumJobs {
		t.Errorf("long jobs = %d, want %d", got, p.Long.NumJobs)
	}
	if s.Bytes() <= 0 {
		t.Errorf("Bytes() = %d, want > 0", s.Bytes())
	}
	if s.Residents()[0].ID != ResidentFirstID {
		t.Errorf("first resident ID = %d, want %d", s.Residents()[0].ID, ResidentFirstID)
	}
	if s.LongJobs()[0].ID != LongFirstID {
		t.Errorf("first long ID = %d, want %d", s.LongJobs()[0].ID, LongFirstID)
	}

	hist, horizon, err := s.History()
	if err != nil {
		t.Fatal(err)
	}
	if horizon != HistoryHorizon {
		t.Errorf("history horizon = %d, want %d", horizon, HistoryHorizon)
	}
	if len(hist) != len(p.VMCaps) { // 8 VMs < MaxHistoryVMs
		t.Errorf("history residents = %d, want %d", len(hist), len(p.VMCaps))
	}
	if hist[0].ID != HistoryFirstID {
		t.Errorf("first history ID = %d, want %d", hist[0].ID, HistoryFirstID)
	}
	// Lazy generation must be stable across calls.
	hist2, _, _ := s.History()
	if &hist[0] != &hist2[0] {
		t.Error("History() regenerated on second call")
	}

	// No long jobs when disabled.
	p2 := testParams(7)
	p2.Long.NumJobs = 0
	s2, err := Build(p2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.LongJobs() != nil {
		t.Errorf("long jobs generated despite NumJobs=0")
	}
}

func TestBuildMatchesDirectGeneration(t *testing.T) {
	p := testParams(99)
	s, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := trace.GenerateResidents(p.Residents, p.VMCaps, ResidentFirstID)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := trace.GenerateShortJobs(p.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(s.Residents()) || len(jobs) != len(s.ShortJobs()) {
		t.Fatal("population sizes differ from direct generation")
	}
	for i, j := range jobs {
		sj := s.ShortJobs()[i]
		if j.ID != sj.ID || j.Arrival != sj.Arrival || j.Duration != sj.Duration || j.Request != sj.Request {
			t.Fatalf("short job %d differs from direct generation", i)
		}
		for k, u := range j.Usage {
			if u != sj.Usage[k] {
				t.Fatalf("short job %d usage slot %d differs", i, k)
			}
		}
	}
	for i, r := range res {
		sr := s.Residents()[i]
		if r.ID != sr.ID || len(r.Usage) != len(sr.Usage) {
			t.Fatalf("resident %d differs from direct generation", i)
		}
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(8)
	p := testParams(1)
	s1, err := c.Get(p)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.Get(p)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("identical params returned distinct snapshots")
	}
	if _, err := c.Get(testParams(2)); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 1 hit / 2 misses", st)
	}
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}
	if st.Bytes <= 0 {
		t.Errorf("bytes = %d, want > 0", st.Bytes)
	}

	c.Reset()
	st = c.Stats()
	if st.Hits != 0 || st.Misses != 0 || st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("after Reset stats = %+v, want zeroes", st)
	}
}

func TestCacheBuildError(t *testing.T) {
	c := NewCache(8)
	var bad Params // no VMCaps → Build fails
	if _, err := c.Get(bad); err == nil {
		t.Fatal("expected error for empty params")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("failed build left %d entries resident", st.Entries)
	}
	// Retry still errors (not a cached nil snapshot).
	if _, err := c.Get(bad); err == nil {
		t.Fatal("expected error on retry")
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (failed builds are not cached)", st.Misses)
	}
}

func TestCacheEviction(t *testing.T) {
	c := NewCache(2)
	for seed := int64(0); seed < 4; seed++ {
		if _, err := c.Get(testParams(seed)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries > 2 {
		t.Errorf("entries = %d, want ≤ 2", st.Entries)
	}
	if st.Evictions == 0 {
		t.Error("expected evictions at capacity")
	}
}

func TestCacheConcurrentSingleflight(t *testing.T) {
	c := NewCache(8)
	p := testParams(5)
	const goroutines = 16
	snaps := make([]*Snapshot, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := c.Get(p)
			if err != nil {
				t.Error(err)
				return
			}
			// Exercise the lazy history path concurrently too.
			if _, _, err := s.History(); err != nil {
				t.Error(err)
			}
			snaps[i] = s
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if snaps[i] != snaps[0] {
			t.Fatalf("goroutine %d got a distinct snapshot", i)
		}
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 (singleflight)", st.Misses)
	}
}

// TestCacheGetBuildPanic drives a build that panics through the cache's
// build seam: the Get that ran it re-panics, a Get already waiting on the
// key returns an error instead of blocking, and the next Get builds afresh.
func TestCacheGetBuildPanic(t *testing.T) {
	c := NewCache(8)
	p := testParams(3)
	started, release := make(chan struct{}), make(chan struct{})
	c.build = func(Params) (*Snapshot, error) {
		close(started)
		<-release
		panic("build failed")
	}
	panicked := make(chan any)
	go func() {
		defer func() { panicked <- recover() }()
		_, _ = c.Get(p)
	}()
	<-started
	waited := make(chan error)
	go func() {
		_, err := c.Get(p)
		waited <- err
	}()
	for c.Stats().Hits == 0 { // the waiter has found the in-flight entry
		runtime.Gosched()
	}
	close(release)
	if got := <-panicked; got != "build failed" {
		t.Fatalf("building Get recovered %v, want the build's panic", got)
	}
	if err := <-waited; err == nil {
		t.Fatal("waiting Get returned no error for a panicked build")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("panicked build left %d entries resident", st.Entries)
	}
	c.build = Build
	if s, err := c.Get(p); err != nil || s == nil {
		t.Fatalf("Get after a panicked build: %v, %v", s, err)
	}
}

// TestCacheEvictsOldestFirst runs one 70-key campaign, twice over, on two
// fresh default-sized caches: insertion-order eviction gives both the same
// counters, and a cache six entries short of the key set evicts on every
// miss of the second pass.
func TestCacheEvictsOldestFirst(t *testing.T) {
	campaign := func() Stats {
		c := NewCache(0)
		for range 2 {
			for seed := range int64(70) {
				if _, err := c.Get(testParams(seed)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return c.Stats()
	}
	a, b := campaign(), campaign()
	if a != b {
		t.Fatalf("identical campaigns: stats %+v != %+v", a, b)
	}
	want := Stats{Misses: 140, Evictions: 140 - DefaultMaxEntries, Entries: DefaultMaxEntries, Bytes: a.Bytes}
	if a != want {
		t.Fatalf("stats %+v, want %+v (FIFO over 70 keys misses every Get)", a, want)
	}
}
