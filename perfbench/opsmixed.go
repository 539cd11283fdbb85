package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/protograph"
	"repro/internal/service"
	"repro/internal/tiered"
	"repro/internal/topogen"
)

// ops-mixed shape. Each client is a CI pipeline that waits for every
// verdict (closed loop) and owns its networks. Per client: netgen
// tenants pushed, checked, edited, pushed again and re-checked, plus one
// pods-4 fabric checked per ToR. Pushes (the first job on a config
// version) rebuild everything and make up over a tenth of the jobs, so
// latency_p90_ms falls on pushes and latency_p50_ms on reads.
const (
	opsClients       = 2
	opsFabricQueries = 12
	opsTimeoutMs     = 60000
)

// opsNetgenSizes are the router counts of each client's netgen tenants.
var opsNetgenSizes = []int{3, 4, 5, 6, 7, 8}

// opsPopulationSeed is netgen's base seed for the tenant population.
const opsPopulationSeed = 1

// opsChecks are the §8.1-style checks every netgen network version gets,
// in this order; the first one pushes the version.
var opsChecks = []string{"mgmt-reachability", "loops", "blackholes", "multipath-consistency", "no-leak"}

// opsNet is one pushed config version of a tenant network.
type opsNet struct {
	name    string            // tenant/version
	configs map[string]string // router name -> config text
	bugs    netgen.Bugs       // ground truth (netgen tenants)
	fabric  bool
	specs   []service.Spec // the checks asked of this version
}

type opsJob struct {
	net  *opsNet
	spec service.Spec
	kind string // push | read | repeat
}

func (j opsJob) key() string {
	b, _ := json.Marshal(j.spec)
	return j.net.name + " " + string(b)
}

type opsMixed struct {
	clients [][]opsJob
	hash    string
	byKey   map[string]opsJob
	// refs holds every query's reference verdict, computed once, after
	// the timed phase, on the first call to expected.
	refsOnce sync.Once
	refs     map[string]reference
}

type reference struct {
	verified bool
	source   string
	err      error
}

func setupOpsMixed(seed int64) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	ft, err := topogen.Generate(4)
	if err != nil {
		return nil, err
	}
	params := netgen.DefaultParams()
	w := &opsMixed{byKey: map[string]opsJob{}}
	var lines []string
	for c := 0; c < opsClients; c++ {
		var tenants [][]opsJob
		// The tenant networks and their edits are a fixed population (one
		// network of each size per client); the seed drives the stream
		// over them: re-queried checks and fabric queries.
		// Networks or edits drawn per seed would make the work per run,
		// and so every metric, swing with the seed.
		for i, size := range opsNetgenSizes {
			tenant := fmt.Sprintf("c%dn%d", c, i)
			pop := opsPopulationSeed + int64(c*len(opsNetgenSizes)+i)
			params.MinRouters, params.MaxRouters = size, size
			n, err := netgen.Generate(tenant, pop, params)
			if err != nil {
				return nil, err
			}
			v1 := &opsNet{name: tenant + "/v1", configs: render(tenant, n.Routers), bugs: n.Bugs}
			v2 := &opsNet{name: tenant + "/v2", configs: ospfCostEdit(rand.New(rand.NewSource(pop)), v1.configs), bugs: n.Bugs}
			var jobs []opsJob
			for _, v := range []*opsNet{v1, v2} {
				for k, chk := range opsChecks {
					kind := "read"
					if k == 0 {
						kind = "push"
					}
					jobs = append(jobs, opsJob{net: v, spec: service.Spec{Check: chk}, kind: kind})
				}
				// One unchanged re-query per version: a verdict-cache hit.
				again := opsChecks[rng.Intn(len(opsChecks))]
				jobs = append(jobs, opsJob{net: v, spec: service.Spec{Check: again}, kind: "repeat"})
			}
			tenants = append(tenants, jobs)
		}
		tenants = append(tenants, fabricJobs(rng, fmt.Sprintf("c%df", c), ft))
		// The tenant order is fixed per client too: drawn from the seed,
		// it changed which jobs of the two clients overlap, and with it
		// latency_p50_ms by up to 15% between seeds doing the same work.
		order := rand.New(rand.NewSource(opsPopulationSeed + int64(c)))
		order.Shuffle(len(tenants), func(i, j int) { tenants[i], tenants[j] = tenants[j], tenants[i] })
		var all []opsJob
		for _, t := range tenants {
			all = append(all, t...)
		}
		for _, j := range all {
			if j.kind != "repeat" {
				j.net.specs = append(j.net.specs, j.spec)
			}
			w.byKey[j.key()] = j
			lines = append(lines, fmt.Sprintf("client=%d kind=%s net=%s configs=%s spec=%s",
				c, j.kind, j.net.name, configsHash(j.net.configs), strings.TrimPrefix(j.key(), j.net.name+" ")))
		}
		w.clients = append(w.clients, all)
	}
	w.hash = hashLines(lines)
	return w, nil
}

// fabricJobs is one fabric tenant: a push and per-ToR reachability and
// bounded-length queries between seeded ToR pairs.
func fabricJobs(rng *rand.Rand, tenant string, ft *topogen.FatTree) []opsJob {
	net := &opsNet{name: tenant + "/v1", configs: render(tenant, ft.Routers), fabric: true}
	tors := ft.AllToRs()
	jobs := make([]opsJob, 0, opsFabricQueries)
	for i := 0; i < opsFabricQueries; i++ {
		src := rng.Intn(len(tors))
		dst := (src + 1 + rng.Intn(len(tors)-1)) % len(tors)
		var p, t int
		fmt.Sscanf(tors[dst], "tor-%d-%d", &p, &t)
		spec := service.Spec{Check: "reachability", Src: tenant + "-" + tors[src], Subnet: topogen.ToRSubnet(p, t).String()}
		if i%2 == 1 {
			spec.Check, spec.Hops = "bounded-length", 4
		}
		kind := "read"
		if i == 0 {
			kind = "push"
		}
		jobs = append(jobs, opsJob{net: net, spec: spec, kind: kind})
	}
	return jobs
}

// render prints each router's config with the hostname prefixed by the
// tenant, so no two tenants ever share a network or a compiled system.
func render(tenant string, routers []*config.Router) map[string]string {
	out := make(map[string]string, len(routers))
	for _, r := range routers {
		name := tenant + "-" + r.Name
		text := strings.Replace(config.Print(r), "hostname "+r.Name+"\n", "hostname "+name+"\n", 1)
		out[name] = text
	}
	return out
}

// ospfCostEdit returns a copy of configs with one seeded one-line
// semantic edit: an `ip ospf cost` on one internal interface.
func ospfCostEdit(rng *rand.Rand, configs map[string]string) map[string]string {
	out := make(map[string]string, len(configs))
	for k, v := range configs {
		out[k] = v
	}
	names := sortedNames(configs)
	for _, i := range rng.Perm(len(names)) {
		lines := strings.Split(configs[names[i]], "\n")
		var at []int
		for l := 0; l+1 < len(lines); l++ {
			if strings.HasPrefix(lines[l], "interface Eth") && strings.HasPrefix(lines[l+1], " ip address ") {
				at = append(at, l+2)
			}
		}
		if len(at) == 0 {
			continue
		}
		pos := at[rng.Intn(len(at))]
		edit := fmt.Sprintf(" ip ospf cost %d", 2+rng.Intn(98))
		lines = append(lines[:pos], append([]string{edit}, lines[pos:]...)...)
		out[names[i]] = strings.Join(lines, "\n")
		return out
	}
	return out
}

func sortedNames(configs map[string]string) []string {
	names := make([]string, 0, len(configs))
	for n := range configs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func configsHash(configs map[string]string) string {
	h := sha256.New()
	for _, n := range sortedNames(configs) {
		fmt.Fprintf(h, "%s\x00%s\x00", n, configs[n])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func countLines(configs map[string]string) int {
	n := 0
	for _, t := range configs {
		n += strings.Count(t, "\n")
	}
	return n
}

func (w *opsMixed) streamHash() string { return w.hash }

// pass pushes the whole job stream through a fresh engine with the
// daemon's defaults, one closed-loop goroutine per client.
func (w *opsMixed) pass(tr *tracer, layers map[string]float64) ([]outcome, counts, error) {
	eng := service.NewEngine(service.Options{Workers: 2, Tiers: "graph,sat", Parallel: "off"})
	outs := make([][]outcome, len(w.clients))
	cs := make([]counts, len(w.clients))
	var mu sync.Mutex // guards layers
	var wg sync.WaitGroup
	for c := range w.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, j := range w.clients[c] {
				if tr != nil && j.kind == "push" {
					benchLayers(tr, &mu, layers, j)
				}
				o, v, view, jtr := w.submit(eng, tr, j)
				if v != nil {
					o.class = jobClass(j, v)
				}
				outs[c] = append(outs[c], o)
				if v == nil {
					continue
				}
				cs[c].Verdicts++
				if !v.Cached && v.Solver != nil {
					cs[c].Conflicts += v.Solver.Conflicts
					cs[c].Propagations += v.Solver.Propagations
				}
				if tr != nil {
					mu.Lock()
					serviceLayers(tr, layers, j, v, view, jtr)
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	eng.Close()
	var total counts
	var all []outcome
	for c := range w.clients {
		total.Verdicts += cs[c].Verdicts
		total.Conflicts += cs[c].Conflicts
		total.Propagations += cs[c].Propagations
		all = append(all, outs[c]...)
	}
	et := eng.Trace()
	total.Compiles = et.Counter("service.compiles")
	if tr != nil {
		layers["service.compiles"] = float64(total.Compiles)
		hits, residue := et.Counter("service.fastpath_hits"), et.Counter("service.fastpath_residue")
		layers["tiered.hit_ratio"] = ratio{float64(hits), float64(hits + residue), "jobs offered to the tier"}.value()
		layers["service.cache_hit_ratio"] = ratio{layers["service.cache_hits"], float64(len(all)), "jobs"}.value()
		layers["service.session_reuse_ratio"] = ratio{layers["service.session_reused"], layers["service.solver_jobs"], "solver-bound jobs"}.value()
	}
	return all, total, nil
}

// jobClass names how a job was answered: a push, or a read served by the
// verdict cache, the graph tier or the network's existing solver session.
func jobClass(j opsJob, v *service.Verdict) string {
	switch {
	case j.kind == "push":
		return "push"
	case v.Cached:
		return "read:cache"
	case v.Tier == tiered.TierGraph:
		return "read:graph"
	}
	return "read:session"
}

// submit sends one job and waits for it (Engine.Verify, keeping the job
// handle for its queue/run times and span tree).
func (w *opsMixed) submit(eng *service.Engine, tr *tracer, j opsJob) (outcome, *service.Verdict, service.View, *obs.Trace) {
	key := j.key()
	o := outcome{key: key}
	sp := tr.begin("service.verify", key, 0)
	start := time.Now()
	job, err := eng.Submit(&service.Request{Configs: j.net.configs, Spec: j.spec, TimeoutMs: opsTimeoutMs})
	if err == nil {
		<-job.Done()
		err = job.Err()
	}
	o.latency = time.Since(start)
	tr.end(sp)
	if err != nil {
		o.err = err
		return o, nil, service.View{}, nil
	}
	v := job.Verdict()
	if v.Budget != nil {
		o.err = fmt.Errorf("budget exceeded")
		return o, nil, service.View{}, nil
	}
	o.decided, o.verified = true, v.Verified
	return o, v, job.View(), job.Trace()
}

// benchLayers times, in the bench process and on the pushed configs, the
// front-end layers the engine runs inside its first job on a network:
// parse, graph, tier analysis and one tier decision per check asked of
// this version.
func benchLayers(tr *tracer, mu *sync.Mutex, layers map[string]float64, j opsJob) {
	key := j.key()
	g := frontEnd(tr, mu, layers, key, j.net.configs)
	if g == nil {
		return // the engine reports the same error on the job
	}
	sp := tr.begin("tiered.analysis", key, 0)
	a := tiered.NewAnalysis(g)
	tr.end(sp)
	for _, spec := range j.net.specs {
		if goal, ok := tierGoal(spec); ok {
			sp = tr.begin("tiered.decide", key, 0)
			a.Decide(goal)
			tr.end(sp)
		}
	}
}

// frontEnd times config.Parse over configs and harness.BuildGraph on the
// result, and returns the graph (nil when either fails).
func frontEnd(tr *tracer, mu *sync.Mutex, layers map[string]float64, key string, configs map[string]string) *protograph.Graph {
	names := sortedNames(configs)
	routers := make([]*config.Router, 0, len(names))
	var parseErr error
	cpu := onThread(func() {
		sp := tr.begin("config.parse", key, 0)
		for _, n := range names {
			r, err := config.Parse(configs[n])
			if err != nil {
				parseErr = err
				break
			}
			routers = append(routers, r)
		}
		tr.end(sp)
	})
	if parseErr != nil {
		return nil
	}
	mu.Lock()
	layers["config.lines"] += float64(countLines(configs))
	layers["config.parse_cpu_s"] += cpu.Seconds()
	mu.Unlock()
	sp := tr.begin("protograph.build", key, 0)
	g, err := harness.BuildGraph(routers)
	tr.end(sp)
	if err != nil {
		return nil
	}
	return g
}

// traceSetup times, on a set-up's own routers, the front end the set-up
// paid: parsing their rendered configs and building the graph.
func traceSetup(tr *tracer, layers map[string]float64, routers []*config.Router) {
	configs := make(map[string]string, len(routers))
	for _, r := range routers {
		configs[r.Name] = config.Print(r)
	}
	var mu sync.Mutex
	frontEnd(tr, &mu, layers, "setup", configs)
}

// tierGoal is the graph tier's goal for a spec, with the service's
// parameter defaults (the service's own translation is unexported).
func tierGoal(s service.Spec) (tiered.Goal, bool) {
	g := tiered.Goal{Check: s.Check, Src: s.Src, Via: s.Via, Hops: s.Hops, MaxLen: s.MaxLen, MaxFailures: s.MaxFailures}
	if s.Check == "bounded-length" && g.Hops == 0 {
		g.Hops = service.DefaultHops
	}
	if s.Check == "no-leak" && g.MaxLen == 0 {
		g.MaxLen = service.DefaultMaxLen
	}
	if s.Subnet != "" {
		sub, err := network.ParsePrefix(s.Subnet)
		if err != nil {
			return tiered.Goal{}, false
		}
		g.Subnet, g.HasSubnet = sub, true
	}
	return g, true
}

// serviceLayers records what the engine reports about one finished job:
// queue and run time, cache and tier outcome, and the build and check
// spans of its span tree.
func serviceLayers(tr *tracer, layers map[string]float64, j opsJob, v *service.Verdict, view service.View, jtr *obs.Trace) {
	tr.report("service.queue_wait_ms", view.QueuedMs)
	tr.report("service.run_ms", view.RunMs)
	if v.Cached {
		layers["service.cache_hits"]++
		return
	}
	if v.Tier != tiered.TierGraph {
		layers["service.solver_jobs"]++
		if j.kind != "push" {
			layers["service.session_reused"]++
		}
	}
	if v.Solver != nil {
		layers["sat.conflicts"] += float64(v.Solver.Conflicts)
		layers["sat.decisions"] += float64(v.Solver.Decisions)
		layers["sat.propagations"] += float64(v.Solver.Propagations)
	}
	if jtr == nil {
		return
	}
	// The job's span tree holds the network build (encode, compile, and
	// the session's blast and simplify) when this job built it, and the
	// check's own blast ("cnf") and search.
	jtr.Root().Walk(func(sp *obs.Span, _ int) {
		d := sp.Duration()
		switch sp.Name() {
		case "encode":
			tr.report("core.encode_ms", ms(d))
			if a, ok := sp.Attr("terms"); ok {
				layers["core.terms"] += float64(a.Int)
			}
		case "compile":
			tr.report("passes.compile_ms", ms(d))
		case "blast", "cnf":
			tr.report("smt.blast_ms", ms(d))
			if a, ok := sp.Attr("sat_vars"); ok && sp.Name() == "blast" {
				layers["smt.sat_vars"] += float64(a.Int)
			}
			if a, ok := sp.Attr("sat_clauses"); ok && sp.Name() == "blast" {
				layers["smt.sat_clauses"] += float64(a.Int)
			}
		case "simplify":
			tr.report("sat.simplify_ms", ms(d))
		case "solve":
			tr.report("sat.solve_ms", ms(d))
			tr.report("sat.solve_cpu_s", d.Seconds())
		}
	})
}
