// Package drat is a from-scratch DRAT proof checker for the traces
// recorded by sat.Solver.EnableProof. It shares no solving code with the
// solver and works in the style of drat-trim, in two passes:
//
//   - The forward pass installs every Input and Derive step unchecked,
//     applies Delete steps and propagates root-level units, until unit
//     propagation refutes the database (an all-false clause, or a
//     propagation conflict).
//   - The backward pass walks the trace in reverse from that point. It
//     restores deleted clauses, retracts each installed clause together
//     with the root units it implied, and verifies by reverse unit
//     propagation (RUP: assume the clause false, propagate, require a
//     conflict) only the lemmas the refutation marks. Conflict analysis
//     marks every clause a conflict rests on, starting from the
//     refutation itself; propagation visits marked clauses first, so the
//     marks stay small.
//
// The marked Input steps are an unsatisfiable core, which CheckCore
// returns. The checked statement is unchanged from a forward checker: an
// accepted trace establishes UNSAT(formula ∧ assumptions). What changes
// is which lemmas are checked. A lemma the refutation never uses is not
// RUP-checked, so a trace carrying a wrong but unused lemma is accepted,
// as in drat-trim; everything on the refutation's path is checked against
// the database as of its own step. Root units outlive the deletion of
// their reason clauses, as in the solver.
//
// Assumption literals (incremental sessions solve under activation
// literals) are treated as unit clauses present from the start.
//
// The database is pointer-free: clause literals live in one arena,
// clauses and reasons are int32 references into a header table, values
// are indexed by literal, and watch lists hold references, so the
// collector has nothing to scan. Deletions are matched by a hash of the
// sorted literals, confirmed by set equality; duplicates are deleted
// last-in-first-out.
package drat

import (
	"fmt"
	"slices"

	"repro/internal/sat"
)

// Stats summarizes a successful check.
type Stats struct {
	Inputs       int   // input steps in the trace, accepted unchecked
	Lemmas       int   // derive steps in the trace
	Verified     int   // derive steps the refutation uses, each RUP-checked
	Deletions    int   // delete steps applied
	Propagations int64 // literals propagated in both passes
}

// Check verifies that the proof establishes unsatisfiability of the
// recorded formula together with the given assumptions. It returns an
// error describing a failing step, or the step counts on success.
func Check(p *sat.Proof, assumptions ...sat.Lit) (*Stats, error) {
	st, _, err := CheckCore(p, assumptions...)
	return st, err
}

// CheckCore verifies the proof like Check and returns the unsatisfiable
// core the backward pass marked: the ascending indices of the Input steps
// the refutation depends on. Assumption clauses are not steps and never
// appear in the core.
func CheckCore(p *sat.Proof, assumptions ...sat.Lit) (*Stats, []int, error) {
	if p == nil {
		return nil, nil, fmt.Errorf("drat: no proof recorded")
	}
	c := newChecker(p.Steps(), assumptions)
	if err := c.forward(assumptions); err != nil {
		return nil, nil, err
	}
	if err := c.backward(); err != nil {
		return nil, nil, err
	}
	slices.Reverse(c.core)
	c.stats.Inputs, c.stats.Lemmas, c.stats.Deletions = p.Counts()
	return &c.stats, c.core, nil
}

// ref indexes the clause table; noRef stands for no clause.
type ref = int32

const noRef ref = -1

// Clause header flags.
const (
	fAttached uint8 = 1 << iota // watched when last in the database
	fTaut                       // contains x and ¬x: never watched
)

// Per-clause state the propagator reads on every visit, kept apart from
// the header for locality.
const (
	sMarked uint8 = 1 << iota // the refutation depends on the clause
	sGone                     // retracted by the backward pass
)

// clause is a header in the clause table; its literals are
// arena[off:off+n]. While attached, the first two are the watched ones.
type clause struct {
	off   uint32
	n     uint32
	hash  uint64 // of the sorted literals, for deletion matching
	next  ref    // next clause in the same hash bucket
	trail int32  // trail length before the clause was installed
	flags uint8
}

// watch is a watch-list entry: the clause and a literal of it whose truth
// lets propagation skip the clause without reading it.
type watch struct {
	ref     ref
	blocker sat.Lit
}

// Propagation filters: the backward pass propagates through marked
// clauses first (selCore) and only then through the rest (selRest).
const (
	selAll uint8 = iota
	selCore
	selRest
)

type checker struct {
	steps   []sat.ProofStep
	arena   []sat.Lit
	cls     []clause
	state   []uint8 // per clause: sMarked, sGone
	refs    []ref   // per step: the clause installed or deleted
	buckets []ref   // hash table heads
	shift   uint    // 64 - log2(len(buckets))

	vals    []int8    // per literal: +1 true, -1 false, 0 unassigned
	reasons []ref     // per variable: clause that implied it
	seen    []bool    // per variable: pending in conflict analysis
	done    []bool    // per variable: root literal whose reasons are marked
	watches [][]watch // per literal l: clauses watching ¬l
	trail   []sat.Lit
	qhead   int // next trail literal to propagate through every clause
	qcore   int // next trail literal to propagate through marked clauses

	coreFirst bool
	refuted   int // step at which propagation refuted the database
	confl     ref // the refuting conflict
	scratch   []sat.Lit
	core      []int
	stats     Stats
}

// notRefuted marks a database unit propagation has not refuted;
// refuted == -1 means the assumptions alone are contradictory.
const notRefuted = -2

// newChecker sizes every table from one scan of the trace.
func newChecker(steps []sat.ProofStep, assumptions []sat.Lit) *checker {
	maxVar := sat.Var(0)
	installs, lits := len(assumptions), len(assumptions)
	for _, a := range assumptions {
		maxVar = max(maxVar, a.Var())
	}
	for _, st := range steps {
		for _, l := range st.Lits {
			maxVar = max(maxVar, l.Var())
		}
		if st.Kind != sat.ProofDelete {
			installs++
			lits += len(st.Lits)
		}
	}
	bits := uint(4)
	for 1<<bits < 2*installs {
		bits++
	}
	nv := int(maxVar) + 1
	c := &checker{
		steps:   steps,
		arena:   make([]sat.Lit, 0, lits),
		cls:     make([]clause, 0, installs),
		state:   make([]uint8, 0, installs),
		refs:    make([]ref, len(steps)),
		buckets: make([]ref, 1<<bits),
		shift:   64 - bits,
		vals:    make([]int8, 2*nv),
		reasons: make([]ref, nv),
		seen:    make([]bool, nv),
		done:    make([]bool, nv),
		watches: make([][]watch, 2*nv),
		refuted: notRefuted,
	}
	for i := range c.buckets {
		c.buckets[i] = noRef
	}
	// Watch lists start as four-entry windows of one slab, so only the
	// long ones allocate.
	slab := make([]watch, 4*len(c.watches))
	for l := range c.watches {
		c.watches[l] = slab[4*l : 4*l : 4*l+4]
	}
	return c
}

// forward installs the trace up to the refutation, then keeps matching
// the remaining deletions so a malformed tail is still rejected.
func (c *checker) forward(assumptions []sat.Lit) error {
	for _, a := range assumptions {
		r := c.add([]sat.Lit{a})
		if c.refuted == notRefuted {
			if confl := c.install(r); confl != noRef {
				c.refuted, c.confl = -1, confl
			}
		}
	}
	for i, st := range c.steps {
		switch st.Kind {
		case sat.ProofInput, sat.ProofDerive:
			r := c.add(st.Lits)
			c.link(r)
			c.refs[i] = r
			if c.refuted == notRefuted {
				if confl := c.install(r); confl != noRef {
					c.refuted, c.confl = i, confl
				}
			}
		case sat.ProofDelete:
			r, err := c.unlink(st.Lits)
			if err != nil {
				return fmt.Errorf("drat: step %d: %w", i, err)
			}
			c.refs[i] = r
			if c.refuted == notRefuted && c.cls[r].flags&fAttached != 0 {
				c.detach(r)
			}
		default:
			return fmt.Errorf("drat: step %d: unknown kind %d", i, st.Kind)
		}
	}
	if c.refuted == notRefuted {
		return fmt.Errorf("drat: proof ends without deriving the empty clause")
	}
	return nil
}

// backward marks the refutation's conflict and walks the trace back from
// it, verifying marked lemmas and collecting marked inputs (in descending
// order).
func (c *checker) backward() error {
	c.resolve(c.see(c.confl), len(c.trail))
	c.coreFirst = true
	for i := c.refuted; i >= 0; i-- {
		r := c.refs[i]
		if c.steps[i].Kind == sat.ProofDelete {
			if c.cls[r].flags&fAttached != 0 {
				c.attach(r)
			}
			continue
		}
		c.retract(int(c.cls[r].trail))
		c.state[r] |= sGone
		if c.state[r]&sMarked == 0 {
			continue
		}
		if c.steps[i].Kind == sat.ProofInput {
			c.core = append(c.core, i)
			continue
		}
		if !c.rup(r) {
			return fmt.Errorf("drat: step %d: derived clause %v is not RUP", i, c.steps[i].Lits)
		}
		c.stats.Verified++
	}
	return nil
}

// add normalizes lits into the arena as a new clause.
func (c *checker) add(lits []sat.Lit) ref {
	off := len(c.arena)
	var taut bool
	c.arena, taut = normalize(c.arena, lits)
	cl := clause{
		off:   uint32(off),
		n:     uint32(len(c.arena) - off),
		hash:  hashLits(c.arena[off:]),
		next:  noRef,
		trail: int32(len(c.trail)),
	}
	if taut {
		cl.flags = fTaut
	}
	c.cls = append(c.cls, cl)
	c.state = append(c.state, 0)
	return ref(len(c.cls) - 1)
}

func (c *checker) lits(r ref) []sat.Lit {
	cl := &c.cls[r]
	return c.arena[cl.off : cl.off+cl.n]
}

// normalize appends lits to dst sorted and without duplicates, reporting
// whether they contain a complementary pair.
func normalize(dst, lits []sat.Lit) ([]sat.Lit, bool) {
	off := len(dst)
	dst = append(dst, lits...)
	s := dst[off:]
	if len(s) <= 16 {
		for i := 1; i < len(s); i++ {
			for j := i; j > 0 && s[j] < s[j-1]; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
	} else {
		slices.Sort(s)
	}
	n, taut := 0, false
	for _, l := range s {
		if n > 0 && l == s[n-1] {
			continue
		}
		if n > 0 && l == s[n-1].Not() {
			taut = true
		}
		s[n] = l
		n++
	}
	return dst[:off+n], taut
}

func hashLits(sorted []sat.Lit) uint64 {
	h := uint64(len(sorted))
	for _, l := range sorted {
		h ^= uint64(l) + 0x9e3779b97f4a7c15 + h<<6 + h>>2
	}
	return h
}

func (c *checker) bucket(h uint64) *ref {
	return &c.buckets[(h*0x9e3779b97f4a7c15)>>c.shift]
}

// link enters r in the deletion hash table, ahead of earlier duplicates.
func (c *checker) link(r ref) {
	b := c.bucket(c.cls[r].hash)
	c.cls[r].next = *b
	*b = r
}

// unlink finds the most recent database clause equal to lits as a set and
// removes it from the hash table. Units and the empty clause are never
// deleted by the solver, so a trace asking for that — or for a clause the
// database does not hold — is malformed.
func (c *checker) unlink(lits []sat.Lit) (ref, error) {
	q, taut := normalize(c.scratch[:0], lits)
	c.scratch = q
	if !taut && len(q) < 2 {
		return noRef, fmt.Errorf("deletion of unit/empty clause %v", lits)
	}
	h := hashLits(q)
	for p := c.bucket(h); *p != noRef; p = &c.cls[*p].next {
		r := *p
		if c.cls[r].hash != h || int(c.cls[r].n) != len(q) {
			continue
		}
		same := true
		for _, l := range c.lits(r) {
			if _, ok := slices.BinarySearch(q, l); !ok {
				same = false
				break
			}
		}
		if same {
			*p = c.cls[r].next
			return r, nil
		}
	}
	return noRef, fmt.Errorf("deletion of clause %v not in database", lits)
}

// assign makes l true with reason r (noRef for a RUP assumption).
func (c *checker) assign(l sat.Lit, r ref) {
	c.vals[l] = 1
	c.vals[l.Not()] = -1
	c.reasons[l.Var()] = r
	c.trail = append(c.trail, l)
}

// install adds clause r to the root state: an all-false clause is returned
// as the refuting conflict; a unit is assigned and propagated; a clause
// with two non-false literals is watched on them. A clause already
// satisfied at the root stays unwatched: retraction unassigns its true
// literal only after the clause itself is gone.
func (c *checker) install(r ref) ref {
	cl := &c.cls[r]
	if cl.flags&fTaut != 0 {
		return noRef
	}
	lits := c.lits(r)
	nonFalse := 0
	for i, l := range lits {
		switch c.vals[l] {
		case 1:
			return noRef
		case 0:
			lits[nonFalse], lits[i] = lits[i], lits[nonFalse]
			nonFalse++
		}
	}
	switch nonFalse {
	case 0:
		return r
	case 1:
		c.assign(lits[0], r)
		return c.propagate()
	}
	cl.flags |= fAttached
	c.attach(r)
	return noRef
}

func (c *checker) attach(r ref) {
	lits := c.lits(r)
	c.watches[lits[0].Not()] = append(c.watches[lits[0].Not()], watch{r, lits[1]})
	c.watches[lits[1].Not()] = append(c.watches[lits[1].Not()], watch{r, lits[0]})
}

func (c *checker) detach(r ref) {
	for _, l := range c.lits(r)[:2] {
		ws := c.watches[l.Not()]
		for i := range ws {
			if ws[i].ref == r {
				ws[i] = ws[len(ws)-1]
				c.watches[l.Not()] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// retract unassigns the trail past n.
func (c *checker) retract(n int) {
	for _, l := range c.trail[n:] {
		c.vals[l], c.vals[l.Not()] = 0, 0
		c.reasons[l.Var()] = noRef
		c.done[l.Var()] = false
	}
	c.trail = c.trail[:n]
	c.qhead, c.qcore = n, n
}

// propagate runs unit propagation from the queue heads and returns a
// conflicting clause, or noRef at the fixpoint. In the backward pass a
// literal's unmarked watchers are visited only once every assignment has
// been propagated through the marked clauses.
func (c *checker) propagate() ref {
	sel := selAll
	if c.coreFirst {
		sel = selRest
	}
	for {
		for c.coreFirst && c.qcore < len(c.trail) {
			c.qcore++
			if confl := c.visit(c.trail[c.qcore-1], selCore); confl != noRef {
				return confl
			}
		}
		if c.qhead == len(c.trail) {
			return noRef
		}
		c.qhead++
		c.stats.Propagations++
		if confl := c.visit(c.trail[c.qhead-1], sel); confl != noRef {
			return confl
		}
	}
}

// visit processes the selected clauses watching ¬p, which p made false:
// each moves its watch to a non-false literal, implies its other watched
// literal, or is returned as a conflict. Retracted clauses are dropped.
func (c *checker) visit(p sat.Lit, sel uint8) ref {
	np := p.Not()
	ws := c.watches[p]
	j := 0
next:
	for i := 0; i < len(ws); i++ {
		w := ws[i]
		if c.vals[w.blocker] == 1 {
			ws[j] = w
			j++
			continue
		}
		s := c.state[w.ref]
		if s&sGone != 0 {
			continue
		}
		if sel != selAll && (s&sMarked != 0) != (sel == selCore) {
			ws[j] = w
			j++
			continue
		}
		lits := c.lits(w.ref)
		if lits[0] == np {
			lits[0], lits[1] = lits[1], np
		}
		first := lits[0]
		if c.vals[first] == 1 {
			ws[j] = watch{w.ref, first}
			j++
			continue
		}
		for k := 2; k < len(lits); k++ {
			if c.vals[lits[k]] != -1 {
				lits[1], lits[k] = lits[k], np
				nl := lits[1].Not()
				c.watches[nl] = append(c.watches[nl], watch{w.ref, first})
				continue next
			}
		}
		ws[j] = watch{w.ref, first}
		j++
		if c.vals[first] == -1 {
			j += copy(ws[j:], ws[i+1:])
			c.watches[p] = ws[:j]
			return w.ref
		}
		c.assign(first, w.ref)
	}
	c.watches[p] = ws[:j]
	return noRef
}

// rup verifies clause r by reverse unit propagation against the current
// database and marks what the verification used. A literal already true
// at the root entails the clause through its own reasons.
func (c *checker) rup(r ref) bool {
	root := len(c.trail)
	for _, l := range c.lits(r) {
		switch c.vals[l] {
		case 1:
			c.retract(root)
			if v := l.Var(); !c.done[v] {
				c.seen[v] = true
				c.resolve(1, root)
			}
			return true
		case 0:
			c.assign(l.Not(), noRef)
		}
	}
	confl := c.propagate()
	if confl != noRef {
		c.resolve(c.see(confl), root)
	}
	c.retract(root)
	return confl != noRef
}

// see marks clause r and flags its false literals' variables for
// resolve, returning how many it newly flagged.
func (c *checker) see(r ref) int {
	c.state[r] |= sMarked
	n := 0
	for _, l := range c.lits(r) {
		if v := l.Var(); c.vals[l] == -1 && !c.seen[v] && !c.done[v] {
			c.seen[v] = true
			n++
		}
	}
	return n
}

// resolve walks the trail backwards until the pending flagged variables
// are exhausted, marking each one's reason: with see, it marks every
// clause a conflict rests on. Trail literals before root are permanent at
// this point of the backward pass; once their reasons are marked they are
// not walked again.
func (c *checker) resolve(pending, root int) {
	for i := len(c.trail) - 1; pending > 0; i-- {
		v := c.trail[i].Var()
		if !c.seen[v] {
			continue
		}
		c.seen[v] = false
		pending--
		if i < root {
			c.done[v] = true
		}
		if r := c.reasons[v]; r != noRef {
			pending += c.see(r)
		}
	}
}
