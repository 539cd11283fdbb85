package drat

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/sat"
)

// L builds a literal from a DIMACS-style signed variable number.
func L(v int) sat.Lit {
	if v < 0 {
		return sat.MkLit(sat.Var(-v), true)
	}
	return sat.MkLit(sat.Var(v), false)
}

func step(k sat.ProofKind, vs ...int) sat.ProofStep {
	lits := make([]sat.Lit, len(vs))
	for i, v := range vs {
		lits[i] = L(v)
	}
	return sat.ProofStep{Kind: k, Lits: lits}
}

func in(vs ...int) sat.ProofStep  { return step(sat.ProofInput, vs...) }
func der(vs ...int) sat.ProofStep { return step(sat.ProofDerive, vs...) }
func del(vs ...int) sat.ProofStep { return step(sat.ProofDelete, vs...) }

// TestRefutationPathSemantics pins what the backward pass checks: a
// wrong lemma the refutation rests on is rejected, while a wrong lemma it
// never uses is accepted unchecked and shows up as Verified < Lemmas.
func TestRefutationPathSemantics(t *testing.T) {
	// (b) is RUP from (a∨b),(¬a∨b); with it the last two inputs conflict.
	good := []sat.ProofStep{in(1, 2), in(-1, 2), der(2), in(-2, 3), in(-2, -3)}
	st, err := Check(replay(good))
	if err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	if st.Lemmas != 1 || st.Verified != 1 {
		t.Fatalf("lemmas=%d verified=%d, want 1/1", st.Lemmas, st.Verified)
	}

	// Flipping the lemma to (¬b) still refutes the database, but (¬b)
	// does not follow from the inputs.
	tampered := slices.Clone(good)
	tampered[2] = der(-2)
	if _, err := Check(replay(tampered)); err == nil || !strings.Contains(err.Error(), "step 2") {
		t.Fatalf("tampered lemma on the refutation path: err = %v, want a step 2 rejection", err)
	}

	// (d) mentions a fresh variable: not RUP, and nothing uses it.
	offPath := append([]sat.ProofStep{in(1, 2), in(-1, 2), der(4)}, good[2:]...)
	st, core, err := CheckCore(replay(offPath))
	if err != nil {
		t.Fatalf("unused non-RUP lemma rejected: %v", err)
	}
	if st.Lemmas != 2 || st.Verified != 1 {
		t.Fatalf("lemmas=%d verified=%d, want 2/1", st.Lemmas, st.Verified)
	}
	if want := []int{0, 1, 4, 5}; !slices.Equal(core, want) {
		t.Fatalf("core %v, want %v", core, want)
	}
}

// TestCoreIsUnsat re-solves the marked core of seeded random UNSAT
// instances, some under assumptions, with a fresh solver: the core
// inputs plus the assumptions must be unsatisfiable on their own. The
// same holds for every tampered trace the checker still accepts, which is
// the soundness statement itself.
func TestCoreIsUnsat(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	checked := 0
	for tries := 0; checked < 60; tries++ {
		if tries > 5000 {
			t.Fatalf("only %d unsat instances in %d tries", checked, tries)
		}
		nv := 10 + rng.Intn(30)
		s, p := randomCNF(rng, nv, 4.3)
		var assumptions []sat.Lit
		for i := rng.Intn(3); i > 0; i-- {
			assumptions = append(assumptions, sat.MkLit(sat.Var(rng.Intn(nv)), rng.Intn(2) == 0))
		}
		if s.Solve(assumptions...) != sat.Unsat {
			continue
		}
		checked++
		st, core, err := CheckCore(p, assumptions...)
		if err != nil {
			t.Fatalf("instance %d: solver proof rejected: %v", checked, err)
		}
		if st.Verified > st.Lemmas {
			t.Fatalf("instance %d: verified %d > lemmas %d", checked, st.Verified, st.Lemmas)
		}
		requireUnsatCore(t, nv, p.Steps(), core, assumptions)

		steps := slices.Clone(p.Steps())
		for i, st := range steps {
			if st.Kind == sat.ProofDerive && len(st.Lits) > 0 && rng.Intn(4) == 0 {
				lits := slices.Clone(st.Lits)
				lits[rng.Intn(len(lits))] = sat.MkLit(sat.Var(rng.Intn(nv)), rng.Intn(2) == 0)
				steps[i].Lits = lits
			}
		}
		// Deletions still name the original lemmas; drop them.
		steps = slices.DeleteFunc(steps, func(st sat.ProofStep) bool { return st.Kind == sat.ProofDelete })
		if _, core, err := CheckCore(replay(steps), assumptions...); err == nil {
			requireUnsatCore(t, nv, steps, core, assumptions)
		}
	}
}

func requireUnsatCore(t *testing.T, nv int, steps []sat.ProofStep, core []int, assumptions []sat.Lit) {
	t.Helper()
	fresh := sat.New()
	for i := 0; i < nv; i++ {
		fresh.NewVar()
	}
	for _, i := range core {
		if steps[i].Kind != sat.ProofInput {
			t.Fatalf("core step %d is a %v", i, steps[i].Kind)
		}
		fresh.AddClause(steps[i].Lits...)
	}
	if got := fresh.Solve(assumptions...); got != sat.Unsat {
		t.Fatalf("core of %d inputs under %v is %v, want unsat", len(core), assumptions, got)
	}
}

// TestReasonDeletion deletes the reason clause of a root-level unit
// before the refutation uses the unit. The unit outlives its reason, and
// the backward pass must restore the deleted clause before RUP-checking a
// lemma that needs it.
func TestReasonDeletion(t *testing.T) {
	// b is implied at the root by (a),(¬a∨b); its reason is then deleted.
	unit := []sat.ProofStep{in(1), in(-1, 2), del(-1, 2), in(-2, 3), in(-2, -3)}
	_, core, err := CheckCore(replay(unit))
	if err != nil {
		t.Fatalf("refutation through a unit whose reason was deleted: %v", err)
	}
	if want := []int{0, 1, 3, 4}; !slices.Equal(core, want) {
		t.Fatalf("core %v, want %v", core, want)
	}

	// (x) needs both (x∨y) and (x∨¬y); (x∨y) is gone by the time x is used.
	lemma := []sat.ProofStep{in(1, 2), in(1, -2), der(1), del(1, 2), in(-1, 3), in(-1, -3)}
	st, core, err := CheckCore(replay(lemma))
	if err != nil {
		t.Fatalf("lemma resting on a later-deleted clause rejected: %v", err)
	}
	if st.Verified != 1 {
		t.Fatalf("verified = %d, want 1", st.Verified)
	}
	if want := []int{0, 1, 4, 5}; !slices.Equal(core, want) {
		t.Fatalf("core %v, want %v", core, want)
	}

	// A deletion after the refutation does not reach back into the
	// database the backward pass checks (x) against.
	late := []sat.ProofStep{in(1, 2), in(1, -2), der(1), in(-1, 3), in(-1, -3), del(1, 2)}
	if _, err := Check(replay(late)); err != nil {
		t.Fatalf("deletion after the refutation: %v", err)
	}
}

// TestDeletionMatching covers duplicates (deleted last-in-first-out) and
// literal order (a deletion names the clause as a set).
func TestDeletionMatching(t *testing.T) {
	// Two copies of (a∨b∨c); the deletion lists the literals in another
	// order and removes the later copy, so the core names the first.
	dups := []sat.ProofStep{in(1, 2, 3), in(2, 3, 1), del(3, 1, 2), in(-1), in(-2), in(-3)}
	_, core, err := CheckCore(replay(dups))
	if err != nil {
		t.Fatalf("duplicate deletion: %v", err)
	}
	if want := []int{0, 3, 4, 5}; !slices.Equal(core, want) {
		t.Fatalf("core %v, want %v", core, want)
	}

	// Deleting the only copy, in another order, removes it: what is left
	// is satisfiable.
	_, err = Check(replay([]sat.ProofStep{in(1, 2, 3), del(3, 2, 1), in(-1), in(-2), in(-3)}))
	if err == nil || !strings.Contains(err.Error(), "without deriving") {
		t.Fatalf("err = %v, want the refutation to be missing", err)
	}

	// A deletion of a clause never added is rejected wherever it sits,
	// also after the refutation.
	for _, steps := range [][]sat.ProofStep{
		{in(1, 2), del(1, 3), in(-1), in(-2)},
		{in(1, 2), in(-1), in(-2), del(1, 3)},
		{in(1, 2), in(1, 2), del(1, 2), del(2, 1), del(1, 2), in(-1), in(-2)},
	} {
		if _, err := Check(replay(steps)); err == nil || !strings.Contains(err.Error(), "not in database") {
			t.Fatalf("%v: err = %v, want an unknown-deletion rejection", steps, err)
		}
	}
}

// TestIncrementalSession checks a session-shaped trace: the solver
// answers two goals under activation literals, with the second goal's
// inputs arriving after the first solve's lemmas. Each check gets its own
// activation literal as an assumption.
func TestIncrementalSession(t *testing.T) {
	s := sat.New()
	p := s.EnableProof()
	pigeonhole(s, 4)
	// Pigeonhole(4) needs search on its own; guard it so the session is
	// satisfiable overall: every clause gains ¬act.
	steps := p.Steps()
	s2 := sat.New()
	p2 := s2.EnableProof()
	for i := 0; i < s.NumVars(); i++ {
		s2.NewVar()
	}
	act1, act2, x := s2.NewVar(), s2.NewVar(), s2.NewVar()
	for _, st := range steps {
		s2.AddClause(append(slices.Clone(st.Lits), sat.MkLit(act1, true))...)
	}
	if got := s2.Solve(sat.MkLit(act1, false)); got != sat.Unsat {
		t.Fatalf("first goal: %v, want unsat", got)
	}
	if _, err := Check(p2, sat.MkLit(act1, false)); err != nil {
		t.Fatalf("first goal's proof rejected: %v", err)
	}
	// Second goal: x ∧ ¬x under act2, added after the first solve.
	s2.AddClause(sat.MkLit(x, false), sat.MkLit(act2, true))
	s2.AddClause(sat.MkLit(x, true), sat.MkLit(act2, true))
	if got := s2.Solve(sat.MkLit(act2, false)); got != sat.Unsat {
		t.Fatalf("second goal: %v, want unsat", got)
	}
	_, core, err := CheckCore(p2, sat.MkLit(act2, false))
	if err != nil {
		t.Fatalf("second goal's proof rejected: %v", err)
	}
	all := p2.Steps()
	var sawDerive bool
	for i, st := range all {
		if st.Kind == sat.ProofDerive {
			sawDerive = true
		}
		if st.Kind == sat.ProofInput && sawDerive && slices.Contains(core, i) {
			return // the core names an input recorded after a lemma
		}
	}
	t.Fatalf("core %v names no input recorded after the first solve's lemmas", core)
}
