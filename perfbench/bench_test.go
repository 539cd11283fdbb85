package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{3, 0, false},
		{10, 0, false},
		{20, 50, true},  // 10 beyond the median, 5 beyond p75
		{40, 75, true},  // 10 beyond p75
		{99, 75, true},  // p90 leaves only 9 beyond it
		{100, 90, true}, // exactly 10 beyond p90
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && beyond(tc.n, got) < 10 {
			t.Errorf("n=%d: p%v has only %d samples beyond it", tc.n, got, beyond(tc.n, got))
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	if got := percentile(xs, 90); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := percentile(xs, 100); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}

func TestRatioCarriesBase(t *testing.T) {
	r := ratio{num: 3, base: 12, baseName: "jobs"}
	if r.value() != 0.25 {
		t.Errorf("value = %v", r.value())
	}
	if got, want := r.String(), "0.2500 (3 of 12 jobs)"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	empty := ratio{baseName: "solver-bound jobs"}
	if empty.value() != 0 {
		t.Errorf("empty base value = %v", empty.value())
	}
	if got, want := empty.String(), "0 (base solver-bound jobs = 0)"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "query", Start: 0, End: 100 * ms},
		// Overlapping children cover 10..50 once, plus 60..70.
		{ID: 2, Parent: 1, Name: "sat.solve", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "drat.check", Start: 30 * ms, End: 50 * ms},
		{ID: 4, Parent: 1, Name: "sat.solve", Start: 60 * ms, End: 70 * ms},
		// A child running past its parent counts only inside it.
		{ID: 5, Name: "modular.run", Start: 200 * ms, End: 300 * ms},
		{ID: 6, Parent: 5, Name: "drat.check", Start: 250 * ms, End: 350 * ms},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"query":       50 * ms,  // 100 - (40 + 10)
		"sat.solve":   40 * ms,  // 30 + 10, no children
		"drat.check":  120 * ms, // 20 + 100
		"modular.run": 50 * ms,  // 100 - 50 clipped
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, got[name], w)
		}
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", "q", 0)
	tr.end(id)
	tr.report("y", 1)
	if id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
	tr = newTracer()
	a := tr.begin("a", "q", 0)
	b := tr.begin("b", "q", a)
	tr.end(b)
	tr.end(a)
	if len(tr.spans) != 2 || tr.spans[1].Parent != a || tr.spans[0].End < tr.spans[1].End {
		t.Errorf("spans = %+v", tr.spans)
	}
}

// TestStreamDeterminism: the same seed gives the same job stream, and
// another seed a different one (modular-405 and fabric-sat only permute
// a short list, so two seeds may coincide there).
func TestStreamDeterminism(t *testing.T) {
	for _, w := range workloads {
		if testing.Short() && w.name == "modular-405" {
			continue
		}
		a, err := w.setup(7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.setup(7)
		if err != nil {
			t.Fatal(err)
		}
		if a.streamHash() != b.streamHash() {
			t.Errorf("%s: seed 7 gave two streams", w.name)
		}
		if w.name == "ops-mixed" {
			c, err := w.setup(8)
			if err != nil {
				t.Fatal(err)
			}
			if c.streamHash() == a.streamHash() {
				t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
			}
		}
	}
}

// TestOpsStreamShape: pushes are over a tenth of the jobs (so p90 can
// fall on them) and every client owns its networks.
func TestOpsStreamShape(t *testing.T) {
	inst, err := setupOpsMixed(3)
	if err != nil {
		t.Fatal(err)
	}
	w := inst.(*opsMixed)
	owner := map[string]int{}
	jobs, pushes := 0, 0
	for c, js := range w.clients {
		for _, j := range js {
			jobs++
			if j.kind == "push" {
				pushes++
			}
			if o, ok := owner[j.net.name]; ok && o != c {
				t.Errorf("network %s used by clients %d and %d", j.net.name, o, c)
			}
			owner[j.net.name] = c
		}
	}
	if jobs < 100 {
		t.Errorf("%d jobs per pass; latency_p90_ms needs at least 100", jobs)
	}
	if float64(pushes) <= 0.1*float64(jobs) {
		t.Errorf("%d pushes of %d jobs", pushes, jobs)
	}
}

// TestFabricSatShape: every query certifies with tiers off, and the
// pods-4 rows are over a tenth of the queries, so latency_p90_ms falls on
// them and latency_p50_ms on the pods-2 rows.
func TestFabricSatShape(t *testing.T) {
	inst, err := setupFabricSat(3)
	if err != nil {
		t.Fatal(err)
	}
	big := 0
	for _, q := range inst.(*fabricSat).queries {
		if !q.f.Certify || q.f.Tiers != "" {
			t.Errorf("%s: certify %v, tiers %q", q.key(), q.f.Certify, q.f.Tiers)
		}
		if q.f.FT.K == 4 {
			big++
		}
	}
	n := len(inst.(*fabricSat).queries)
	if float64(big) <= 0.1*float64(n) || 2*big >= n {
		t.Errorf("%d pods-4 rows of %d queries", big, n)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the program's metric list and
// BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, b.Workloads[i].Name, w.name)
		}
	}
}

func TestOSPFCostEditIsOneLine(t *testing.T) {
	inst, err := setupOpsMixed(5)
	if err != nil {
		t.Fatal(err)
	}
	w := inst.(*opsMixed)
	seen := map[string]bool{}
	for _, j := range w.clients[0] {
		if j.net.fabric || seen[j.net.name] || j.net.name[len(j.net.name)-2:] != "v2" {
			continue
		}
		seen[j.net.name] = true
		v1 := w.byKey[j.net.name[:len(j.net.name)-2]+"v1 "+`{"check":"`+opsChecks[0]+`"}`]
		if v1.net == nil {
			t.Fatalf("no v1 for %s", j.net.name)
		}
		changed := 0
		for name, text := range j.net.configs {
			if text != v1.net.configs[name] {
				changed++
				if d := countLines(map[string]string{"": text}) - countLines(map[string]string{"": v1.net.configs[name]}); d != 1 {
					t.Errorf("%s/%s: edit added %d lines", j.net.name, name, d)
				}
			}
		}
		if changed != 1 {
			t.Errorf("%s: %d routers changed, want 1", j.net.name, changed)
		}
	}
	if len(seen) == 0 {
		t.Fatal("no edited networks in the stream")
	}
}

// TestLayersJSON: the layer record makes no claim, covers every
// workload, and names only metrics the benchmark reports.
func TestLayersJSON(t *testing.T) {
	raw, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var l struct {
		Claim     *string                    `json:"claim"`
		Workloads map[string]json.RawMessage `json:"workloads"`
		LayerMap  []struct {
			Layer   string   `json:"layer"`
			Metrics []string `json:"metrics"`
		} `json:"layer_map"`
	}
	if err := json.Unmarshal(raw, &l); err != nil {
		t.Fatal(err)
	}
	if l.Claim != nil {
		t.Errorf("claim = %q, want null", *l.Claim)
	}
	for _, w := range workloads {
		if _, ok := l.Workloads[w.name]; !ok {
			t.Errorf("layers.json lacks workload %s", w.name)
		}
	}
	known := map[string]bool{}
	for _, m := range perLayer {
		known[m.name] = true
	}
	for _, lm := range l.LayerMap {
		for _, m := range lm.Metrics {
			if !known[m] {
				t.Errorf("layer %s names unknown metric %s", lm.Layer, m)
			}
		}
	}
}
