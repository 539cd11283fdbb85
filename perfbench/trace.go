package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call. Offsets are from the tracer's start.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0: root
	Name   string        `json:"name"`
	Query  string        `json:"query"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	// reported holds numbers read from what the program's public API
	// returns (cost ledgers, verdict phase fields, engine counters) for
	// work that happens inside another layer's call and so cannot be
	// timed from outside. They are labelled reported, never timed.
	reported map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), reported: map[string]float64{}} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, query string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Query: query, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// report adds v to a reported number.
func (t *tracer) report(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.reported[name] += v
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval covered by its direct children (overlapping children are
// counted once).
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// writeTraces saves each traced pass's spans and reported numbers as
// JSON under dir, one element per pass.
func writeTraces(passes []*tracer, dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	out := make([]map[string]any, len(passes))
	for i, t := range passes {
		out[i] = map[string]any{"spans": t.spans, "reported": t.reported}
	}
	if err := json.NewEncoder(f).Encode(out); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
