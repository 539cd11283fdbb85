package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/modular"
	"repro/internal/tiered"
)

// modular405 runs the seven modular Figure 8 goals on the k=18 fat-tree
// (405 routers, the paper's largest Figure 8 point) through
// modular.Verify, as `bench -experiment modular` does: blame on,
// NoFallback, one worker per CPU.
type modular405 struct {
	f     *harness.Fabric
	goals []string // one pass, in seeded order
	opts  modular.Options
}

const modularPods = 18

func setupModular405(seed int64) (instance, error) {
	f, err := harness.BuildFabric(modularPods)
	if err != nil {
		return nil, err
	}
	var props []string
	for _, p := range harness.AllFig8Props() {
		if _, ok := harness.Fig8ModularGoal(f, p); ok {
			props = append(props, p)
		}
	}
	opts := modular.Options{Workers: runtime.NumCPU(), Core: core.DefaultOptions(), NoFallback: true}
	opts.Core.Blame = true
	return &modular405{f: f, goals: permute(seed, props), opts: opts}, nil
}

func (w *modular405) streamHash() string {
	lines := make([]string, len(w.goals))
	for i, p := range w.goals {
		lines[i] = fmt.Sprintf("modular pods=%d blame=1 nofallback=1 %s", modularPods, p)
	}
	return hashLines(lines)
}

// expected: every Figure 8 property holds on a fat-tree by construction.
func (w *modular405) expected(key string) (bool, string, error) {
	return true, "fat-tree construction", nil
}

func (w *modular405) pass(tr *tracer, layers map[string]float64) ([]outcome, counts, error) {
	var outs []outcome
	var c counts
	ctx := context.Background()
	if tr != nil {
		traceSetup(tr, layers, w.f.FT.Routers)
	}
	for _, prop := range w.goals {
		goal, _ := harness.Fig8ModularGoal(w.f, prop)
		start := time.Now()
		var v *modular.Verdict
		var err error
		if tr == nil {
			v, err = modular.Verify(ctx, w.f.G, goal, w.opts)
		} else {
			v, err = w.traced(ctx, tr, layers, prop, goal)
		}
		o := outcome{key: prop, class: prop, latency: time.Since(start), err: err}
		switch {
		case err != nil:
		case v.Result == nil:
			// NoFallback residue: undecided, never read as a verdict.
			o.err = fmt.Errorf("%s: undecided, residue %v", prop, v.Residue)
		case v.Mode != modular.ModeModular:
			o.err = fmt.Errorf("%s: answered in mode %s, not modular", prop, v.Mode)
		default:
			o.decided, o.verified = true, v.Result.Verified
			c.Verdicts++
			c.Conflicts += v.Result.Stats.Conflicts
			c.Propagations += v.Result.Stats.Propagations
			c.Classes += int64(v.Report.Classes)
		}
		outs = append(outs, o)
	}
	return outs, c, nil
}

// traced replays modular.Verify's multi-component path call by call —
// Partition, NewPlan, Run — and reports the work done inside Run from the
// composed result's phase sums and the run's cost ledger.
func (w *modular405) traced(ctx context.Context, tr *tracer, layers map[string]float64, prop string, goal tiered.Goal) (*modular.Verdict, error) {
	q := tr.begin("query", prop, 0)
	defer tr.end(q)
	sp := tr.begin("modular.partition", prop, q)
	cut := modular.Partition(w.f.G)
	tr.end(sp)
	if !cut.MultiComponent() {
		return nil, fmt.Errorf("%s: fabric did not partition", prop)
	}
	sp = tr.begin("modular.plan", prop, q)
	plan := modular.NewPlan(w.f.G, cut, goal)
	tr.end(sp)
	sp = tr.begin("modular.run", prop, q)
	rep, err := modular.Run(ctx, w.f.G, plan, w.opts)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	v := &modular.Verdict{Mode: modular.ModeModular, Result: rep.Result, Report: rep, Cut: cut}
	if len(rep.Residue) > 0 {
		v.Mode, v.Result, v.Residue = modular.ModeFallback, nil, rep.Residue
		return v, nil
	}
	layers["modular.components"] += float64(rep.Components)
	layers["modular.classes"] += float64(rep.Classes)
	layers["modular.alias_hits"] += float64(rep.AliasHits)
	layers["modular.checks"] += float64(rep.Checks)
	layers["modular.alias_ratio"] = ratio{layers["modular.alias_hits"], layers["modular.components"], "components"}.value()
	r := rep.Result
	layers["sat.conflicts"] += float64(r.Stats.Conflicts)
	layers["sat.decisions"] += float64(r.Stats.Decisions)
	layers["sat.propagations"] += float64(r.Stats.Propagations)
	layers["smt.sat_vars"] += float64(r.SATVars)
	layers["smt.sat_clauses"] += float64(r.SATClauses)
	// The composed result sums its component checks' phase times.
	// SimplifyElapsed includes the goal-relative COI pass.
	tr.report("smt.blast_ms", ms(r.EncodeElapsed))
	tr.report("sat.simplify_ms", ms(r.SimplifyElapsed))
	tr.report("sat.solve_ms", ms(r.SolveElapsed))
	tr.report("sat.solve_cpu_s", r.SolveElapsed.Seconds())
	tr.report("drat.core_ms", ms(r.CertifyElapsed))
	// Per-class compile time is on the class nodes of the run's cost
	// ledger. The ledger's other phase totals are not used: merging a
	// check's ledger into its class and into the composed result shares
	// child nodes, so those totals count some checks more than once.
	for _, class := range rep.Cost.Children {
		for _, ph := range class.Children {
			if ph.Name == "compile" {
				tr.report("passes.compile_ms", ms(ph.Wall))
			}
		}
	}
	return v, nil
}
