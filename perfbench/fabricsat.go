package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/properties"
	"repro/internal/sat"
	"repro/internal/sat/drat"
	"repro/internal/smt"
	"repro/internal/smt/passes"
	"repro/internal/topogen"
)

// fabricSat answers Figure 8 properties on fat-trees through the
// monolithic path with certification on and tiers off, one query at a
// time: the input where CDCL search and DRAT checking do most of the
// work. A pass is the no-blackholes, all-tor-reachability and
// equal-length-pod rows on the pods-2 fabric (5 routers) and the
// equal-length-pod row on the pods-4 fabric (20 routers). The pods-4
// no-blackholes and all-tor-reachability rows are left out: at 15-25 s
// each a run would hold three samples, and its figures would follow the
// load on the host rather than the program.
type fabricSat struct {
	queries []fabricQuery // one pass, in seeded order
}

type fabricQuery struct {
	f    *harness.Fabric
	prop string
}

func (q fabricQuery) key() string { return fmt.Sprintf("pods=%d %s", q.f.FT.K, q.prop) }

// fabricSatRows are the Figure 8 rows of one pass, per fabric size.
var fabricSatRows = []struct {
	pods  int
	props []string
}{
	{2, []string{harness.Fig8NoBlackholes, harness.Fig8ReachAll, harness.Fig8EqualLengthPod}},
	{4, []string{harness.Fig8EqualLengthPod}},
}

func setupFabricSat(seed int64) (instance, error) {
	var qs []fabricQuery
	for _, row := range fabricSatRows {
		f, err := harness.BuildFabric(row.pods)
		if err != nil {
			return nil, err
		}
		f.Certify = true
		for _, p := range row.props {
			qs = append(qs, fabricQuery{f, p})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return &fabricSat{queries: qs}, nil
}

// permute returns a seeded permutation of xs.
func permute(seed int64, xs []string) []string {
	out := append([]string(nil), xs...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func (w *fabricSat) streamHash() string {
	lines := make([]string, len(w.queries))
	for i, q := range w.queries {
		lines[i] = fmt.Sprintf("fig8 certify=1 tiers=off %s", q.key())
	}
	return hashLines(lines)
}

// expected: every Figure 8 property holds on a fat-tree by construction
// (and every committed Figure 8 row is verified).
func (w *fabricSat) expected(key string) (bool, string, error) {
	return true, "fat-tree construction", nil
}

func (w *fabricSat) pass(tr *tracer, layers map[string]float64) ([]outcome, counts, error) {
	var outs []outcome
	var c counts
	if tr != nil {
		for _, row := range fabricSatRows {
			for _, q := range w.queries {
				if q.f.FT.K == row.pods {
					traceSetup(tr, layers, q.f.FT.Routers)
					break
				}
			}
		}
	}
	for _, q := range w.queries {
		// Each query starts from a collected heap, as it would in a
		// process of its own: otherwise the garbage and heap goal the
		// previous query leaves behind, and so the pass's peak resident
		// set, would depend on the seeded query order. The collection is
		// part of the pass but not of the query's latency.
		runtime.GC()
		start := time.Now()
		var row *harness.Fig8Row
		var err error
		if tr == nil {
			row, err = harness.RunFig8Property(q.f, q.prop)
		} else {
			row, err = replay(tr, layers, q)
		}
		o := outcome{key: q.key(), class: fmt.Sprintf("pods-%d", q.f.FT.K), latency: time.Since(start), err: err}
		if err == nil {
			o.decided, o.verified = true, row.Verified
			if row.Verified && row.ProofLemmas == 0 && row.Conflicts > 0 {
				o.err = fmt.Errorf("%s: verified without a checked certificate", q.key())
			}
			c.Verdicts++
			c.Conflicts += row.Conflicts
			c.Propagations += row.Propagations
			c.Lemmas += int64(row.ProofLemmas)
		}
		outs = append(outs, o)
	}
	return outs, c, nil
}

// fig8Query builds the property and assumptions harness.RunFig8Property
// checks for prop, on model m.
func fig8Query(f *harness.Fabric, m *core.Model, prop string) (*smt.Term, []*smt.Term, error) {
	k := f.FT.K
	dst := topogen.ToRSubnet(0, 0)
	destToR := topogen.ToRName(0, 0)
	assumptions := []*smt.Term{m.NoFailures()}
	switch prop {
	case harness.Fig8NoBlackholes:
		return properties.NoBlackholes(m), assumptions, nil
	case harness.Fig8ReachAll:
		var others []string
		for _, t := range f.FT.AllToRs() {
			if t != destToR {
				others = append(others, t)
			}
		}
		return properties.ReachableAll(m, others, dst), append(assumptions, properties.DstIn(m, dst)), nil
	case harness.Fig8EqualLengthPod:
		return properties.EqualLengths(m, f.FT.ToRs[k-1], dst), append(assumptions, properties.DstIn(m, dst)), nil
	}
	return nil, nil, fmt.Errorf("fabric-sat: no replay for %q", prop)
}

// replay answers a query layer by layer on the same inputs as the one-shot
// Model.Check: encode, compile, goal-relative COI, blast, simplify,
// search, DRAT check — each call wrapped in a span.
func replay(tr *tracer, layers map[string]float64, fq fabricQuery) (*harness.Fig8Row, error) {
	prop := fq.key()
	q := tr.begin("query", prop, 0)
	defer tr.end(q)
	row := &harness.Fig8Row{Pods: fq.f.FT.K, Routers: len(fq.f.FT.Routers), Property: fq.prop}

	sp := tr.begin("core.encode", prop, q)
	opts := core.DefaultOptions()
	opts.Certify = true
	m, err := core.Encode(fq.f.G, opts)
	if err != nil {
		return nil, err
	}
	property, assumptions, err := fig8Query(fq.f, m, fq.prop)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	layers["core.terms"] += float64(m.Ctx.NumTerms())

	sp = tr.begin("passes.compile", prop, q)
	cn := m.Compile()
	tr.end(sp)

	sp = tr.begin("passes.coi", prop, q)
	asserts := append(append([]*smt.Term(nil), cn.Asserts...), m.Asserts[cn.BaseLen:]...)
	goals := append(append([]*smt.Term(nil), assumptions...), m.Ctx.Not(property))
	sys := &passes.System{Ctx: m.Ctx, Asserts: asserts, Goals: goals}
	pl, err := passes.NewPipeline(passes.COI)
	if err != nil {
		return nil, err
	}
	for _, st := range pl.Run(sys, nil) {
		layers["passes.terms_in"] += float64(st.TermsBefore)
		layers["passes.terms_out"] += float64(st.TermsAfter)
	}
	tr.end(sp)

	sp = tr.begin("smt.blast", prop, q)
	solver := smt.NewSolver(m.Ctx)
	proof := solver.EnableProof()
	for _, a := range sys.Asserts {
		solver.Assert(a)
	}
	for _, g := range sys.Goals {
		solver.Assert(g)
	}
	tr.end(sp)
	row.SATVars, row.SATClauses = solver.NumSATVars(), solver.NumSATClauses()
	layers["smt.sat_vars"] += float64(row.SATVars)
	layers["smt.sat_clauses"] += float64(row.SATClauses)

	sp = tr.begin("sat.simplify", prop, q)
	solver.Simplify()
	tr.end(sp)

	var status sat.Status
	solveCPU := onThread(func() {
		sp = tr.begin("sat.solve", prop, q)
		status = solver.Check()
		tr.end(sp)
	})
	st := solver.SATStats()
	row.Conflicts, row.Decisions, row.Propagations = st.Conflicts, st.Decisions, st.Propagations
	layers["sat.conflicts"] += float64(st.Conflicts)
	layers["sat.decisions"] += float64(st.Decisions)
	layers["sat.propagations"] += float64(st.Propagations)
	layers["sat.solve_cpu_s"] += solveCPU.Seconds()
	if status != sat.Unsat && status != sat.Sat {
		return nil, fmt.Errorf("%s: solver returned %v", prop, status)
	}
	row.Verified = status == sat.Unsat
	if row.Verified {
		var dst *drat.Stats
		checkCPU := onThread(func() {
			sp = tr.begin("drat.check", prop, q)
			dst, err = drat.Check(proof)
			tr.end(sp)
		})
		if err != nil {
			return nil, fmt.Errorf("%s: certificate rejected: %w", prop, err)
		}
		row.ProofLemmas = dst.Lemmas
		layers["drat.lemmas"] += float64(dst.Lemmas)
		layers["drat.check_cpu_s"] += checkCPU.Seconds()
	}
	return row, nil
}

// onThread runs fn pinned to one OS thread and returns that thread's CPU
// time over the call.
func onThread(fn func()) time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	fn()
	return threadCPU() - c0
}
