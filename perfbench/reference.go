package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/properties"
	"repro/internal/service"
	"repro/internal/simulator"
	"repro/internal/smt"
)

// expected is the reference verdict: netgen's injected-bug ground truth
// for mgmt-reachability, fat-tree construction for fabric queries, and
// otherwise the untiered fresh core path on the same configs, with every
// falsification replayed in the concrete simulator.
func (w *opsMixed) expected(key string) (bool, string, error) {
	w.refsOnce.Do(w.computeRefs)
	r, ok := w.refs[key]
	if !ok {
		return false, "", fmt.Errorf("unknown query %q", key)
	}
	return r.verified, r.source, r.err
}

// computeRefs computes every query's reference on two goroutines. The
// references depend only on the configs, the spec and the binary, so
// they are kept in a cache file named after the binary's hash: later runs
// of the same build skip recomputing the fixed population's references.
func (w *opsMixed) computeRefs() {
	cached := loadRefCache()
	keys := make([]string, 0, len(w.byKey))
	for k := range w.byKey {
		keys = append(keys, k)
	}
	refs := make([]reference, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(keys); i = int(next.Add(1)) - 1 {
				j := w.byKey[keys[i]]
				if r, ok := cached.get(j); ok {
					refs[i] = r
					continue
				}
				refs[i] = freshReference(j)
			}
		}()
	}
	wg.Wait()
	w.refs = make(map[string]reference, len(keys))
	for i, k := range keys {
		w.refs[k] = refs[i]
		if refs[i].err == nil {
			cached.put(w.byKey[k], refs[i])
		}
	}
	cached.save()
}

// refCache is the on-disk reference cache of one binary.
type refCache struct {
	path string
	m    map[string]cachedRef
}

type cachedRef struct {
	Verified bool   `json:"verified"`
	Source   string `json:"source"`
}

func refKey(j opsJob) string {
	return configsHash(j.net.configs) + " " + strings.TrimPrefix(j.key(), j.net.name+" ")
}

func (c *refCache) get(j opsJob) (reference, bool) {
	r, ok := c.m[refKey(j)]
	return reference{verified: r.Verified, source: r.Source}, ok
}

func (c *refCache) put(j opsJob, r reference) {
	c.m[refKey(j)] = cachedRef{r.verified, r.source}
}

// loadRefCache opens the cache for the running binary; without a usable
// binary hash it returns an empty cache that is never saved.
func loadRefCache() *refCache {
	c := &refCache{m: map[string]cachedRef{}}
	exe, err := os.Executable()
	if err != nil {
		return c
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return c
	}
	sum := sha256.Sum256(bin)
	c.path = filepath.Join(cacheDir, "refs-"+hex.EncodeToString(sum[:8])+".json")
	if raw, err := os.ReadFile(c.path); err == nil {
		// A corrupt cache is recomputed, not trusted.
		if json.Unmarshal(raw, &c.m) != nil {
			c.m = map[string]cachedRef{}
		}
	}
	return c
}

func (c *refCache) save() {
	if c.path == "" {
		return
	}
	raw, err := json.Marshal(c.m)
	if err == nil {
		err = os.WriteFile(c.path, raw, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reference cache:", err)
	}
}

func freshReference(j opsJob) reference {
	verified, source, err := freshVerdict(j)
	return reference{verified, source, err}
}

func freshVerdict(j opsJob) (bool, string, error) {
	if j.net.fabric {
		return true, "fat-tree construction", nil
	}
	if j.spec.Check == "mgmt-reachability" {
		return !j.net.bugs.HijackableMgmt, "netgen ground truth", nil
	}
	var routers []*config.Router
	for _, n := range sortedNames(j.net.configs) {
		r, err := config.Parse(j.net.configs[n])
		if err != nil {
			return false, "", err
		}
		routers = append(routers, r)
	}
	g, err := harness.BuildGraph(routers)
	if err != nil {
		return false, "", err
	}
	m, err := core.Encode(g, core.DefaultOptions())
	if err != nil {
		return false, "", err
	}
	var p *smt.Term
	switch j.spec.Check {
	case "loops":
		p = properties.NoForwardingLoops(m, nil)
	case "blackholes":
		p = properties.NoBlackholes(m)
	case "multipath-consistency":
		p = properties.MultipathConsistent(m)
	case "no-leak":
		p = properties.NoLeak(m, nil, service.DefaultMaxLen)
	default:
		return false, "", fmt.Errorf("no reference for check %q", j.spec.Check)
	}
	res, err := m.Check(p, m.NoFailures())
	if err != nil {
		return false, "", err
	}
	if res.Verified {
		return true, "fresh core (untiered)", nil
	}
	// A falsification stands when the simulator, run on the
	// counterexample's packet and environment, computes the same stable
	// state as the counterexample, or one that shows the violation itself
	// (networks with several stable states may legitimately settle in
	// another one).
	cex := res.Counterexample
	diffs, err := m.ReplayAgrees(cex)
	if err != nil {
		return false, "", fmt.Errorf("simulator replay: %w", err)
	}
	if len(diffs) == 0 {
		return false, "simulator replay", nil
	}
	sim := simulator.New(g)
	st, err := sim.Run(cex.Packet.DstIP, cex.Env)
	if err != nil {
		return false, "", fmt.Errorf("simulator replay: %w", err)
	}
	if !simViolates(sim, st, j.spec.Check, cex.Packet) {
		// Neither world confirms the other: the simulator settles in a
		// stable state without the violation that differs from the
		// counterexample's. The reference cannot tell a second stable
		// state from a model/simulator divergence, so it gives no verdict.
		fmt.Printf("UNCONFIRMED %s: falsification does not replay in the simulator (env %v; state differences: %v)\n",
			j.key(), cex.Env, diffs)
		return false, sourceUnconfirmed, nil
	}
	return false, "simulator violation", nil
}

// sourceUnconfirmed marks a reference that could not decide the query.
const sourceUnconfirmed = "unconfirmed"

// simViolates evaluates a check on the simulator's stable state, walking
// the packet from every router, with the property's definition from
// internal/properties restated over concrete forwarding.
func simViolates(sim *simulator.Simulator, st *simulator.Result, check string, pkt config.Packet) bool {
	if check == "no-leak" {
		for _, rec := range st.ExportsToExt {
			if rec.Valid && rec.PrefixLen > service.DefaultMaxLen {
				return true
			}
		}
		return false
	}
	walks := map[string]*simulator.WalkResult{}
	for _, n := range sim.G.Topo.Nodes {
		walks[n.Name] = sim.Walk(st, n.Name, pkt)
	}
	switch check {
	case "loops":
		for _, w := range walks {
			if w.Outcomes[simulator.Looped] {
				return true
			}
		}
	case "multipath-consistency":
		// Where some branch reaches the destination, every branch must.
		for _, w := range walks {
			if w.Reaches() {
				for o := range w.Outcomes {
					if o != simulator.Delivered && o != simulator.Exited {
						return true
					}
				}
			}
		}
	case "blackholes":
		// A router a neighbor forwards to must deliver, null-route or
		// forward onward past its own and the next hop's ACLs.
		incoming := map[string]bool{}
		handled := map[string]bool{}
		for name, w := range walks {
			for _, p := range w.Paths {
				last := p[len(p)-1]
				switch {
				case len(p) >= 3:
					incoming[p[1]] = true
					handled[name] = true
				case last == "<delivered>" || last == "<null0>" || strings.HasPrefix(last, "<exit "):
					handled[name] = true
				}
			}
		}
		for name := range incoming {
			if !handled[name] {
				return true
			}
		}
	}
	return false
}
