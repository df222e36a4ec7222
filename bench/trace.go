package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer's public API, recorded by the
// benchmark itself around the call (the program under test is not
// instrumented). Parent is the ID of the enclosing span, -1 for a unit's
// root; every span of one unit shares its Unit id.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Unit    string `json:"unit"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the traced layer drive; the file is
// written once, when the drive ends. It is single-goroutine by design: the
// drive calls every layer from one goroutine.
type tracer struct {
	epoch time.Time
	unit  string
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// beginUnit opens a root span; every span until endUnit carries the unit id.
func (t *tracer) beginUnit(unit string) {
	t.unit = unit
	t.begin("unit")
}

func (t *tracer) endUnit() { t.end() }

func (t *tracer) begin(name string) {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Unit: t.unit, Name: name})
	t.stack = append(t.stack, id)
	// Read the clock last so the bookkeeping above is charged to the
	// parent's self time, not to this span.
	t.spans[id].StartNS = time.Since(t.epoch).Nanoseconds()
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	now := time.Since(t.epoch).Nanoseconds()
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].EndNS = now
	return time.Duration(now - t.spans[id].StartNS)
}

// time records fn under a span and returns its duration.
func (t *tracer) time(name string, fn func()) time.Duration {
	t.begin(name)
	fn()
	return t.end()
}

// selfTimes returns, per span ID, the span's duration minus the part of
// that interval its direct children cover. Children of one parent never
// overlap (the drive is single-goroutine), so the cover is their sum.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] = spans[i].EndNS - spans[i].StartNS
	}
	for i := range spans {
		if p := spans[i].Parent; p >= 0 && p < len(spans) {
			self[p] -= spans[i].EndNS - spans[i].StartNS
		}
	}
	return self
}

// checkSpans verifies the trace is well formed: every span ended at or after
// it started, every parent exists, shares the child's unit and encloses it,
// self time is never negative, and every root span has its own unit id.
func checkSpans(spans []span) error {
	roots := map[string]int{}
	for i, s := range spans {
		if s.ID != i {
			return fmt.Errorf("span %d has id %d", i, s.ID)
		}
		if s.EndNS < s.StartNS {
			return fmt.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Unit == "" {
			return fmt.Errorf("span %d (%s) has no unit id", i, s.Name)
		}
		if s.Parent == -1 {
			roots[s.Unit]++
			continue
		}
		if s.Parent < 0 || s.Parent >= i {
			return fmt.Errorf("span %d (%s) has no earlier parent %d", i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if p.Unit != s.Unit {
			return fmt.Errorf("span %d (%s) is in unit %q, its parent in %q", i, s.Name, s.Unit, p.Unit)
		}
		if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			return fmt.Errorf("span %d (%s) is not enclosed by its parent %d (%s)", i, s.Name, p.ID, p.Name)
		}
	}
	for unit, n := range roots {
		if n != 1 {
			return fmt.Errorf("unit %q has %d root spans", unit, n)
		}
	}
	for i, ns := range selfTimes(spans) {
		if ns < 0 {
			return fmt.Errorf("span %d (%s) has negative self time %d ns", i, spans[i].Name, ns)
		}
	}
	return nil
}

// traceFile is the on-disk form of bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Spans    []span  `json:"spans"`
	SelfNS   []int64 `json:"self_ns"`
}

func writeTrace(path, workload string, seed int64, spans []span) error {
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: spans, SelfNS: selfTimes(spans)})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
