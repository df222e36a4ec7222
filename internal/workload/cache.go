package workload

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// DefaultMaxEntries bounds the Default cache. A full figure suite needs a
// few dozen distinct snapshots (one per seed × sweep-point workload); each
// is a handful of megabytes at paper scale, so the bound caps steady-state
// memory in the low hundreds of megabytes worst case.
const DefaultMaxEntries = 64

// Default is the process-wide snapshot cache. sim.Run consults it whenever
// no pre-built snapshot was supplied, and sim.RunMany warms it before
// fanning a sweep out, so every scheme × replication sharing a workload key
// builds the trace exactly once. It has no off switch; a test that needs a
// private build calls Build or Resets the cache first.
var Default = NewCache(DefaultMaxEntries)

// Stats is a point-in-time snapshot of a cache's counters.
type Stats struct {
	// Hits counts Get calls served from an existing (or in-flight)
	// snapshot — generator work avoided.
	Hits uint64 `json:"hits"`
	// Misses counts Get calls that built the snapshot.
	Misses uint64 `json:"misses"`
	// Evictions counts entries dropped to respect the size bound.
	Evictions uint64 `json:"evictions"`
	// Entries is the number of snapshots currently resident.
	Entries int `json:"entries"`
	// Bytes is the approximate retained payload of resident snapshots.
	Bytes int64 `json:"bytes"`
}

// Add returns the element-wise sum of two stats snapshots. The farm
// dispatcher uses it to aggregate per-worker cache counters (streamed in
// heartbeats) into a fleet-wide total: across N worker processes a
// campaign with W distinct workloads should build at most N×W snapshots
// no matter how many runs it fans out.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Hits:      s.Hits + o.Hits,
		Misses:    s.Misses + o.Misses,
		Evictions: s.Evictions + o.Evictions,
		Entries:   s.Entries + o.Entries,
		Bytes:     s.Bytes + o.Bytes,
	}
}

// Cache is a content-addressed snapshot store with singleflight builds:
// concurrent Gets for one key share a single generation, so a sweep that
// fans 4 schemes × R replications out over shared workloads never builds a
// trace twice. All methods are safe for concurrent use.
type Cache struct {
	hits    atomic.Uint64
	misses  atomic.Uint64
	evicted atomic.Uint64

	// build is Build; tests swap in a failing one.
	build func(Params) (*Snapshot, error)

	mu      sync.Mutex
	max     int
	entries map[string]*cacheEntry
	added   uint64 // entries ever inserted; the next entry's seq
}

// cacheEntry is one key's slot; ready is closed once snap/err are final.
// seq orders entries by insertion, oldest first.
type cacheEntry struct {
	ready chan struct{}
	snap  *Snapshot
	err   error
	seq   uint64
}

// done reports whether the entry's build has finished.
func (e *cacheEntry) done() bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

// NewCache returns a cache holding at most maxEntries snapshots
// (≤ 0 means DefaultMaxEntries).
func NewCache(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	return &Cache{build: Build, max: maxEntries, entries: make(map[string]*cacheEntry)}
}

// Get returns the snapshot for p, building it at most once per key no
// matter how many goroutines ask concurrently. Failed builds are not
// cached; the next Get for the key retries. A build that panics re-raises
// the panic on the Get that ran it, and every Get waiting on it returns an
// error instead of blocking.
func (c *Cache) Get(p Params) (*Snapshot, error) {
	key := p.Key()
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		<-e.ready
		return e.snap, e.err
	}
	e := &cacheEntry{ready: make(chan struct{}), seq: c.added}
	c.added++
	c.evictLocked()
	c.entries[key] = e
	c.mu.Unlock()

	c.misses.Add(1)
	defer func() {
		if e.snap == nil {
			if e.err == nil {
				e.err = fmt.Errorf("workload: build of snapshot %.12s panicked", key)
			}
			c.mu.Lock()
			if c.entries[key] == e {
				delete(c.entries, key)
			}
			c.mu.Unlock()
		}
		close(e.ready)
	}()
	e.snap, e.err = c.build(p)
	return e.snap, e.err
}

// evictLocked drops the oldest completed entry, in insertion order, when
// the cache is full, so identical campaigns evict identically and report
// equal counters. In-flight builds are never evicted.
func (c *Cache) evictLocked() {
	if len(c.entries) < c.max {
		return
	}
	var victim string
	var oldest *cacheEntry
	for k, e := range c.entries {
		if e.done() && (oldest == nil || e.seq < oldest.seq) {
			victim, oldest = k, e
		}
	}
	if oldest != nil {
		delete(c.entries, victim)
		c.evicted.Add(1)
	}
}

// Stats returns the cache's current counters.
func (c *Cache) Stats() Stats {
	s := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evicted.Load(),
	}
	c.mu.Lock()
	s.Entries = len(c.entries)
	for _, e := range c.entries {
		if e.done() && e.snap != nil {
			s.Bytes += e.snap.Bytes()
		}
	}
	c.mu.Unlock()
	return s
}

// Reset drops every resident snapshot and zeroes the counters. In-flight
// builds complete and are returned to their waiters but are forgotten by
// the cache.
func (c *Cache) Reset() {
	c.mu.Lock()
	c.entries = make(map[string]*cacheEntry)
	c.mu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
	c.evicted.Store(0)
}
