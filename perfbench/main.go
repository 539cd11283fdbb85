// Command perfbench is the repository benchmark: it drives the verifier
// through its public entry points on three seeded workloads, checks every
// verdict against a reference the code under test did not compute, and
// prints the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run) as one JSON object on the last line of standard output.
//
//	perfbench --workload fabric-sat|modular-405|ops-mixed --seed N --seconds S --trace 0|1
//
// Build and run it from the repository root with perfbench/run.sh, which
// keeps the build inside .bench_build. See perfbench/README.md for the
// workloads, the metrics and the layer map.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd and perLayer list every metric the benchmark reports, with
// units, in BENCHMARK.json order (a test keeps the two in step).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"verdicts_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"decided_frac", "ratio"},
	{"cpu_ms_per_verdict", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"config.parse_ms", "ms"},
	{"config.lines_per_cpu_s", "1/s"},
	{"protograph.build_ms", "ms"},
	{"tiered.analysis_ms", "ms"},
	{"tiered.decide_ms", "ms"},
	{"tiered.hit_ratio", "ratio"},
	{"core.encode_ms", "ms"},
	{"core.terms", "count"},
	{"passes.compile_ms", "ms"},
	{"passes.coi_ms", "ms"},
	{"passes.terms_in", "count"},
	{"passes.terms_out", "count"},
	{"smt.blast_ms", "ms"},
	{"smt.sat_vars", "count"},
	{"smt.sat_clauses", "count"},
	{"sat.simplify_ms", "ms"},
	{"sat.solve_ms", "ms"},
	{"sat.conflicts", "count"},
	{"sat.decisions", "count"},
	{"sat.propagations", "count"},
	{"sat.props_per_cpu_s", "1/s"},
	{"drat.check_ms", "ms"},
	{"drat.lemmas", "count"},
	{"drat.lemmas_per_cpu_s", "1/s"},
	{"drat.check_over_solve", "ratio"},
	{"drat.core_ms", "ms"},
	{"modular.partition_ms", "ms"},
	{"modular.plan_ms", "ms"},
	{"modular.run_ms", "ms"},
	{"modular.components", "count"},
	{"modular.classes", "count"},
	{"modular.alias_ratio", "ratio"},
	{"modular.checks", "count"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.session_reuse_ratio", "ratio"},
	{"service.compiles", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// outcome is one answered query of the job stream.
type outcome struct {
	// key identifies the query for its reference verdict.
	key string
	// class groups queries for the latency breakdown (e.g. push, read).
	class    string
	latency  time.Duration
	decided  bool // verified or falsified within the time limit
	verified bool
	err      error
}

// counts are the deterministic work counts of one pass; replay parity
// requires the traced pass to reproduce the untraced pass's exactly.
type counts struct {
	Verdicts     int64
	Conflicts    int64 // sat.conflicts
	Propagations int64 // sat.propagations
	Lemmas       int64 // drat.lemmas
	Classes      int64 // modular.classes
	Compiles     int64 // service.compiles
}

// instance is a set-up workload: its generated inputs plus whatever
// must exist before the first query (graphs, engines).
type instance interface {
	// streamHash is the SHA-256 of the canonical job stream of one pass.
	streamHash() string
	// pass answers the job stream once. A non-nil tracer switches to the
	// layer-by-layer replay and fills layers with per-layer figures.
	pass(tr *tracer, layers map[string]float64) ([]outcome, counts, error)
	// expected returns the reference verdict for a query key and the
	// name of its source.
	expected(key string) (verified bool, source string, err error)
}

type workload struct {
	name string
	// setups is how many times setup runs before each timed pass;
	// setup_s is the median over all of them.
	setups int
	setup  func(seed int64) (instance, error)
}

var workloads = []workload{
	{"fabric-sat", 5, setupFabricSat},
	{"modular-405", 2, setupModular405},
	{"ops-mixed", 8, setupOpsMixed},
}

func main() {
	wl := flag.String("workload", "", "fabric-sat | modular-405 | ops-mixed")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same job stream")
	seconds := flag.Int("seconds", 30, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: add a traced pass and report per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "where a traced run writes its spans")
	flag.StringVar(&cacheDir, "cache-dir", ".bench_build", "where reference verdicts are cached per binary")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *wl {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload fabric-sat|modular-405|ops-mixed --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *traceDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// cacheDir is where the ops-mixed reference cache lives (--cache-dir).
var cacheDir = ".bench_build"

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(w *workload, seed int64, seconds time.Duration, traced bool, traceDir string) (*result, error) {
	// Set-up is repeated before every timed pass, so setup_s is a median
	// over the whole run, taken under the same load as the passes. The
	// instance of the first set-up runs; the later ones are discarded.
	var inst instance
	var setupS []float64
	setUp := func() error {
		debug.FreeOSMemory()
		for i := 0; i < w.setups; i++ {
			start := time.Now()
			in, err := w.setup(seed)
			if err != nil {
				return fmt.Errorf("%s setup: %w", w.name, err)
			}
			setupS = append(setupS, time.Since(start).Seconds())
			if inst == nil {
				inst = in
			}
		}
		return nil
	}
	if err := setUp(); err != nil {
		return nil, err
	}
	fmt.Printf("workload %s seed %d stream %s\n", w.name, seed, inst.streamHash())

	// Timed phase: whole passes, stopping before a pass that would end
	// past the deadline by the last pass's length (at least one pass).
	// Every pass starts from a collected heap returned to the OS, so one
	// pass's garbage does not inflate the next pass's memory; the
	// collection between passes is not timed. Each pass also resets the
	// process's peak resident set, so every pass yields its own rate, CPU
	// cost and peak, and the end-to-end figures are medians over passes:
	// one pass slowed by other load on the host moves them less than it
	// would move a total.
	//
	// A traced run alternates an untraced and a traced pass instead. The
	// untraced passes are the baseline for the replay-parity check and the
	// tracing overhead, not a measurement; each per-layer figure is the
	// median over the traced passes.
	var outs []outcome
	var first counts
	var passes int
	var wall, cpu, lastPass time.Duration
	var passRate, passCPU, passPeak, untracedWall, tracedWall []float64
	perPass := map[string][]float64{}
	var tracers []*tracer
	for passes == 0 || wall+lastPass <= seconds {
		if passes > 0 && !traced {
			if err := setUp(); err != nil {
				return nil, err
			}
		}
		debug.FreeOSMemory()
		resetPeakRSS()
		cpu0, p0 := cpuTime(), time.Now()
		o, c, err := inst.pass(nil, nil)
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", w.name, passes+1, err)
		}
		lastPass = time.Since(p0)
		passCPUTime := cpuTime() - cpu0
		wall += lastPass
		cpu += passCPUTime
		if passes == 0 {
			first = c
		} else if c != first {
			return nil, fmt.Errorf("%s pass %d counts %+v, pass 1 %+v", w.name, passes+1, c, first)
		}
		outs = append(outs, o...)
		passes++
		n := float64(max(c.Verdicts, 1))
		passRate = append(passRate, float64(c.Verdicts)/lastPass.Seconds())
		passCPU = append(passCPU, ms(passCPUTime)/n)
		passPeak = append(passPeak, peakRSSMB())
		untracedWall = append(untracedWall, lastPass.Seconds())
		if !traced {
			fmt.Printf("pass %d: %d verdicts, %.3fs wall, %.3fs CPU, peak %.1f MB\n",
				passes, c.Verdicts, lastPass.Seconds(), passCPUTime.Seconds(), passPeak[len(passPeak)-1])
			continue
		}

		// Traced pass: per-layer figures and replay parity.
		debug.FreeOSMemory()
		tr := newTracer()
		layers := map[string]float64{}
		p0 = time.Now()
		o, c, err = inst.pass(tr, layers)
		if err != nil {
			return nil, fmt.Errorf("%s traced pass %d: %w", w.name, len(tracers)+1, err)
		}
		tw := time.Since(p0)
		wall += tw
		lastPass += tw
		outs = append(outs, o...)
		if c != first {
			return nil, fmt.Errorf("%s replay parity: traced pass counts %+v, untraced %+v", w.name, c, first)
		}
		for name, d := range selfTimes(tr.spans) {
			layers[name+"_ms"] += ms(d)
		}
		for name, v := range tr.reported {
			layers[name] += v
		}
		derive(layers)
		for _, m := range perLayer {
			perPass[m.name] = append(perPass[m.name], layers[m.name])
		}
		tracers = append(tracers, tr)
		tracedWall = append(tracedWall, tw.Seconds())
		fmt.Printf("pair %d: untraced pass %.3fs, traced pass %.3fs\n", passes, untracedWall[len(untracedWall)-1], tw.Seconds())
	}
	layers := map[string]float64{}
	if traced {
		for name, vs := range perPass {
			layers[name] = median(vs)
		}
		layers["trace.overhead_ratio"] = median(tracedWall)/median(untracedWall) - 1
		fmt.Printf("replay parity: ok in %d traced passes %+v\n", len(tracers), first)
		fmt.Printf("trace overhead: median traced pass %.3fs vs median untraced pass %.3fs over %d pairs (ratio %+.4f)\n",
			median(tracedWall), median(untracedWall), len(tracers), layers["trace.overhead_ratio"])
		path, err := writeTraces(tracers, traceDir, fmt.Sprintf("%s-seed%d.json", w.name, seed))
		if err != nil {
			return nil, err
		}
		fmt.Printf("spans: %d passes written to %s\n", len(tracers), path)
	}

	// Correctness: every verdict against its reference.
	checkStart := time.Now()
	res := &result{Correct: true, Attempted: len(outs), Metrics: map[string]metric{}}
	var lat []float64
	decided := 0
	sources := map[string]int{}
	for _, o := range outs {
		if o.err != nil {
			res.Failed++
			res.Correct = false
			fmt.Printf("FAILED %s: %v\n", o.key, o.err)
			continue
		}
		lat = append(lat, ms(o.latency))
		if !o.decided {
			res.Failed++
			res.Correct = false
			fmt.Printf("UNDECIDED %s\n", o.key)
			continue
		}
		decided++
		want, src, err := inst.expected(o.key)
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", o.key, err)
		}
		sources[src]++
		if src == sourceUnconfirmed {
			continue
		}
		if o.verified != want {
			res.Correct = false
			fmt.Printf("WRONG VERDICT %s: got verified=%v, reference (%s) says %v\n", o.key, o.verified, src, want)
		}
	}
	fmt.Printf("verdicts checked: %d of %d attempted in %.3fs, references %s\n",
		decided, len(outs), time.Since(checkStart).Seconds(), fmtCounts(sources))
	printClasses(outs)

	if !traced {
		// End-to-end metrics come from the untraced passes only.
		n := len(outs)
		tail, tailOK := tailPercentile(len(lat))
		e2e := map[string]float64{
			"setup_s":            median(setupS),
			"verdicts_per_s":     median(passRate),
			"latency_p50_ms":     median(lat),
			"latency_p90_ms":     percentile(lat, 90),
			"decided_frac":       ratio{float64(decided), float64(n), "queries attempted"}.value(),
			"cpu_ms_per_verdict": median(passCPU),
			"peak_rss_mb":        median(passPeak),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
		fmt.Printf("timed phase: %d passes, %d verdicts in %.3fs wall, %.3fs CPU\n", passes, decided, wall.Seconds(), cpu.Seconds())
		fmt.Printf("  %-20s %12.4f s      (n=%d set-ups through the run, median)\n", "setup_s", e2e["setup_s"], len(setupS))
		fmt.Printf("  %-20s %12.4f 1/s    (n=%d verdicts, median of %d passes)\n", "verdicts_per_s", e2e["verdicts_per_s"], decided, passes)
		fmt.Printf("  %-20s %12.4f ms     (n=%d queries)\n", "latency_p50_ms", e2e["latency_p50_ms"], len(lat))
		note := "a tail estimate"
		if b := beyond(len(lat), 90); b < 10 {
			note = fmt.Sprintf("only %d samples beyond it: not a tail estimate", b)
		}
		fmt.Printf("  %-20s %12.4f ms     (n=%d queries, %s)\n", "latency_p90_ms", e2e["latency_p90_ms"], len(lat), note)
		if tailOK {
			fmt.Printf("  %-20s p%g = %.4f ms (highest percentile with >=10 samples beyond it)\n", "tail", tail, percentile(lat, tail))
		}
		fmt.Printf("  %-20s %12.4f ratio  (%s)\n", "decided_frac", e2e["decided_frac"],
			ratio{float64(decided), float64(n), "queries attempted"})
		fmt.Printf("  %-20s %12.4f ms     (n=%d verdicts, median of %d passes)\n", "cpu_ms_per_verdict", e2e["cpu_ms_per_verdict"], decided, passes)
		fmt.Printf("  %-20s %12.4f MB     (median of %d passes' peaks)\n", "peak_rss_mb", e2e["peak_rss_mb"], passes)
		return res, nil
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{layers[m.name], m.unit}
		fmt.Printf("  %-28s %16.4f %s\n", m.name, layers[m.name], m.unit)
	}
	return res, nil
}

// derive computes the throughput and ratio figures from the raw totals a
// traced pass accumulates. Each ratio's base is named in the README.
func derive(layers map[string]float64) {
	layers["config.lines_per_cpu_s"] = ratio{layers["config.lines"], layers["config.parse_cpu_s"], "parse CPU s"}.value()
	layers["sat.props_per_cpu_s"] = ratio{layers["sat.propagations"], layers["sat.solve_cpu_s"], "solve CPU s"}.value()
	layers["drat.lemmas_per_cpu_s"] = ratio{layers["drat.lemmas"], layers["drat.check_cpu_s"], "check CPU s"}.value()
	layers["drat.check_over_solve"] = ratio{layers["drat.check_ms"], layers["sat.solve_ms"], "sat.solve_ms"}.value()
}

// cpuTime is the process's CPU time so far, all threads, user+system.
func cpuTime() time.Duration { return clockTime(clockProcessCPUTime) }

// threadCPU is the calling thread's CPU time; callers pin the goroutine
// with runtime.LockOSThread around the measured call.
func threadCPU() time.Duration { return clockTime(clockThreadCPUTime) }

// clock_gettime clock ids (Linux). Unlike getrusage, which advances in
// scheduler ticks, these clocks resolve single short calls.
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

func clockTime(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// resetPeakRSS restarts the process's peak resident set from its current
// resident set (Linux: writing 5 to /proc/self/clear_refs).
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cannot reset peak RSS:", err)
	}
}

// peakRSSMB is the process's peak resident set since the last
// resetPeakRSS (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// hashLines is the stream hash: SHA-256 over the canonical job lines.
func hashLines(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// printClasses prints each query class's share and median latency, and
// how many of its queries reach the p90 latency: it shows where
// latency_p50_ms and latency_p90_ms fall.
func printClasses(outs []outcome) {
	byClass := map[string][]float64{}
	var all []float64
	for _, o := range outs {
		byClass[o.class] = append(byClass[o.class], ms(o.latency))
		all = append(all, ms(o.latency))
	}
	if len(byClass) < 2 {
		return
	}
	p90 := percentile(all, 90)
	names := make([]string, 0, len(byClass))
	for c := range byClass {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		l := byClass[c]
		tail := 0
		for _, v := range l {
			if v >= p90 {
				tail++
			}
		}
		fmt.Printf("  class %-14s %4d queries (%5.1f%%)  median %10.3f ms  max %10.3f ms  at/above p90 %d\n",
			c, len(l), 100*float64(len(l))/float64(len(outs)), median(l), percentile(l, 100), tail)
	}
}

func fmtCounts(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, m[k])
	}
	return strings.Join(parts, " ")
}
