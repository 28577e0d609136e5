package learn

import (
	"sync/atomic"
	"time"

	"repro/internal/automaton"
	"repro/internal/sat"
)

// encoding is the CNF form of the paper's automaton-existence
// hypothesis for a fixed state count N (Algorithm 1 lines 18–32).
//
// Variables:
//
//	slot[i][j][s]  — segment i is at automaton state s after j of its
//	                 transitions (the paper's q variables, one-hot
//	                 over 1..N);
//	t[s][p][s']    — the automaton has a transition from s to s' on
//	                 predicate p (the transition-function view that
//	                 makes the wrong_transition constraint and the
//	                 compliance blocking clauses linear to state).
//
// Clauses:
//
//	one-hot        — each slot holds exactly one state;
//	link           — a segment step from slot j to slot j+1 labelled p
//	                 implies t[s][p][s'] for the states the slots
//	                 hold (lines 21–27: the automaton includes every
//	                 segment as a transition sequence);
//	determinism    — at most one s' per (s, p): asserting
//	                 wrong_transition = false (lines 28–32);
//	anchor         — segment 0 (the prefix of P) starts at state 0,
//	                 fixing the initial state and breaking one
//	                 symmetry;
//	blocking       — for each invalid l-gram found by the compliance
//	                 check, no state path may realise it
//	                 (lines 43–45).
//
// A satisfying assignment is decoded into the automaton by reading the
// slot states along every segment, so the extracted model contains
// exactly the witnessed transitions. t variables are given a false
// preferred polarity for the same reason.
//
// The encoding is incremental in two directions. Within a state count,
// blockGram and addSegment extend the live solver, which keeps its
// learned clauses. Across state counts, an encoding may be built with
// capacity > n: the CNF then allocates capacity states, and the search
// for an n-state automaton runs under the single assumption that the
// symmetry chain's last link is false — no slot holds a state ≥ n —
// which restricts every slot to the first n states and makes the
// restricted formula equisatisfiable with the plain n-state encoding.
// When the n-state search turns out unsatisfiable, promote drops the
// assumption and the same solver, learned clauses and all, continues
// at n+1 states.
type encoding struct {
	n        int // states the current search targets
	capacity int // states the CNF allocates (n, or more for speculation)
	numSyms  int
	solver   *sat.Solver

	segments [][]int
	anchored []bool

	slotVars [][][]int // [segment][slot][state]
	tVars    [][][]int // [state][symbol][state']

	// Symmetry-chain tail: maxGE variables of the last processed slot,
	// indexed s-1 for "some slot so far holds a state ≥ s". Nil until
	// the first slot when ordering is enabled, always nil otherwise.
	chainTail []int

	// rel is the canonical n·|Σ|·n transition relation the latest
	// canonicalize computed (see tVar for the flat index).
	rel []bool
}

// newEncoding builds the hypothesis for n states (allocating capacity
// ≥ n) over the given segments. Segments are added through the same
// addSegment used for live extension, so an encoding built with k
// segments is variable-for-variable identical to one built with fewer
// and extended afterwards.
func newEncoding(n, capacity, numSyms int, segments [][]int, anchored []bool, orderStates bool) *encoding {
	if capacity < n {
		capacity = n
	}
	e := &encoding{n: n, capacity: capacity, numSyms: numSyms, solver: sat.New()}

	// Transition-function variables, over the full capacity.
	e.tVars = make([][][]int, capacity)
	for s := 0; s < capacity; s++ {
		e.tVars[s] = make([][]int, numSyms)
		for p := 0; p < numSyms; p++ {
			e.tVars[s][p] = make([]int, capacity)
			for s2 := 0; s2 < capacity; s2++ {
				v := e.solver.NewVar()
				e.solver.SetPreferredPolarity(v, false)
				e.tVars[s][p][s2] = v
			}
		}
	}

	// Determinism: at most one successor per (state, predicate).
	for s := 0; s < capacity; s++ {
		for p := 0; p < numSyms; p++ {
			for a := 0; a < capacity; a++ {
				for b := a + 1; b < capacity; b++ {
					e.solver.AddClause(sat.Neg(e.tVars[s][p][a]), sat.Neg(e.tVars[s][p][b]))
				}
			}
		}
	}

	if orderStates && capacity > 1 {
		e.chainTail = []int{} // non-nil: ordering enabled, no slot yet
	}

	for i := range segments {
		e.addSegment(segments[i], anchored[i])
	}
	return e
}

// addSegment appends one segment to the live encoding: slot variables
// with one-hot constraints, the anchor when the segment is a sequence
// prefix, link clauses tying the slots to the transition function, and
// the extension of the state-ordering symmetry chain. Deduplication is
// the caller's job.
func (e *encoding) addSegment(seg []int, anchor bool) {
	e.segments = append(e.segments, append([]int(nil), seg...))
	e.anchored = append(e.anchored, anchor)

	slots := make([][]int, len(seg)+1)
	for j := range slots {
		states := make([]int, e.capacity)
		for s := 0; s < e.capacity; s++ {
			states[s] = e.solver.NewVar()
		}
		slots[j] = states
		// At least one state.
		lits := make([]sat.Lit, e.capacity)
		for s := 0; s < e.capacity; s++ {
			lits[s] = sat.Pos(states[s])
		}
		e.solver.AddClause(lits...)
		// At most one state.
		for a := 0; a < e.capacity; a++ {
			for b := a + 1; b < e.capacity; b++ {
				e.solver.AddClause(sat.Neg(states[a]), sat.Neg(states[b]))
			}
		}
	}
	e.slotVars = append(e.slotVars, slots)

	// Anchor: segments that are prefixes of P start at the initial
	// state, pinned to 0 (this includes segment 0, the w-prefix, and
	// any acceptance-refinement windows reaching back to position 0).
	if anchor {
		e.solver.AddClause(sat.Pos(slots[0][0]))
	}

	// Link clauses.
	for j, p := range seg {
		from := slots[j]
		to := slots[j+1]
		for s := 0; s < e.capacity; s++ {
			for s2 := 0; s2 < e.capacity; s2++ {
				e.solver.AddClause(
					sat.Neg(from[s]), sat.Neg(to[s2]), sat.Pos(e.tVars[s][p][s2]))
			}
		}
	}

	// Symmetry breaking: states must be first used in slot order — a
	// slot may hold state t > 0 only if some earlier slot (in
	// segment-major order) already holds state t−1 or higher. Every
	// automaton has exactly one such labelling, so this prunes the
	// (N−1)! relabellings that otherwise bloat the UNSAT escalation
	// proofs. maxGE[j][s] means "some slot ≤ j holds a state ≥ s"; the
	// chain threads across addSegment calls through chainTail, and its
	// final link doubles as the capacity restriction (see assumptions).
	if e.chainTail != nil {
		prev := e.chainTail
		first := len(prev) == 0
		for j := range slots {
			states := slots[j]
			cur := make([]int, e.capacity-1)
			for s := 1; s < e.capacity; s++ {
				v := e.solver.NewVar()
				e.solver.SetPreferredPolarity(v, false)
				cur[s-1] = v
				// y[j][t] → maxGE[j][s] for t ≥ s.
				for t := s; t < e.capacity; t++ {
					e.solver.AddClause(sat.Neg(states[t]), sat.Pos(v))
				}
				if !first {
					// Monotone in j.
					e.solver.AddClause(sat.Neg(prev[s-1]), sat.Pos(v))
				}
			}
			// y[j][t] allowed only if maxGE[j-1][t-1] (t ≥ 1); the
			// very first slot may only hold state 0.
			for t := 1; t < e.capacity; t++ {
				if first {
					e.solver.AddClause(sat.Neg(states[t]))
				} else {
					e.solver.AddClause(sat.Neg(states[t]), sat.Pos(prev[t-1]))
				}
			}
			prev = cur
			first = false
		}
		e.chainTail = prev
	}
}

// anchorSegment upgrades segment i to anchored: its first slot is
// pinned to the initial state. A no-op when already anchored.
func (e *encoding) anchorSegment(i int) {
	if e.anchored[i] {
		return
	}
	e.anchored[i] = true
	e.solver.AddClause(sat.Pos(e.slotVars[i][0][0]))
}

// assumptions returns the capacity restriction for the current n: the
// symmetry chain's last link at index n must be false, which forbids
// every slot from holding a state ≥ n. Empty when the encoding is at
// full capacity (or holds no slots yet, in which case there is nothing
// to restrict).
func (e *encoding) assumptions() []sat.Lit {
	if e.n < e.capacity && len(e.chainTail) > 0 {
		return []sat.Lit{sat.Neg(e.chainTail[e.n-1])}
	}
	return nil
}

// promote raises the search target to the full capacity, dropping the
// restriction assumption. The solver keeps every clause learned while
// the restriction was in force: learned clauses derive from the
// problem clauses alone, never from assumptions, so they remain valid.
func (e *encoding) promote() { e.n = e.capacity }

// blockGram forbids every state path realising the symbol-id word g:
// for all state paths s0..sl, at least one of the involved transitions
// must be absent. Paths range over the full capacity so that blocking
// clauses stay sufficient after promote.
func (e *encoding) blockGram(g []int) {
	l := len(g)
	path := make([]int, l+1)
	var rec func(depth int)
	rec = func(depth int) {
		if depth == l+1 {
			lits := make([]sat.Lit, l)
			for k := 0; k < l; k++ {
				lits[k] = sat.Neg(e.tVars[path[k]][g[k]][path[k+1]])
			}
			e.solver.AddClause(lits...)
			return
		}
		for s := 0; s < e.capacity; s++ {
			path[depth] = s
			rec(depth + 1)
		}
	}
	rec(0)
}

// solveChunkConflicts is the conflict budget per solver call when a
// deadline or stop flag is in force; a variable so tests can shrink it
// to pin mid-solve behaviour deterministically.
var solveChunkConflicts int64 = 20000

// solve runs the SAT solver under the capacity-restriction
// assumptions. With neither deadline nor stop flag the solver runs
// unbounded; otherwise it solves in conflict-budget chunks so that a
// single hard instance cannot overshoot a timeout (or outlive a
// portfolio decision) unboundedly. It returns Sat, Unsat, or Unknown
// when interrupted mid-solve.
func (e *encoding) solve(deadline time.Time, stop *atomic.Bool) sat.Status {
	if deadline.IsZero() && stop == nil {
		e.solver.MaxConflicts = 0
		return e.solver.SolveAssuming(e.assumptions()...)
	}
	e.solver.MaxConflicts = solveChunkConflicts
	for {
		st := e.solver.SolveAssuming(e.assumptions()...)
		if st != sat.Unknown {
			return st
		}
		if stop != nil && stop.Load() {
			return sat.Unknown
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return sat.Unknown
		}
	}
}

// preferTransitions sets the preferred polarity of every transition
// variable — the canonical encoding biases them false so extracted
// automata stay sparse; a portfolio variant may flip them as a
// diversification knob.
func (e *encoding) preferTransitions(polarity bool) {
	for _, bySym := range e.tVars {
		for _, row := range bySym {
			for _, v := range row {
				e.solver.SetPreferredPolarity(v, polarity)
			}
		}
	}
}

// canonicalize computes the canonical model: the lexicographically
// least transition relation (in state, symbol, successor order)
// consistent with the current constraints, left in e.rel as a flat
// n·|Σ|·n relation for extract. It walks the transition variables in
// that order, fixing each as a further assumption. e.rel starts as the
// current model's relation and is refreshed only after a satisfiable
// probe, so it is always a model of every fix so far: a variable false
// there is fixed false with no solve, and a true one is probed with
// one incremental assumption solve — fixed false when that is
// satisfiable, true otherwise (the snapshot, which has it true, then
// still satisfies every fix). Consecutive probes share the growing
// assumption prefix, which the solver keeps on its trail between calls.
// The result is a function of the constraint set alone — independent
// of learned clauses, activity scores, saved phases, chunking, or which
// portfolio member raced ahead — which is what makes incremental,
// scratch and portfolio construction extract identical automata. The
// solver must be in a Sat state; afterwards its model is unspecified.
// Cost: one solve per variable true in the snapshot when it is reached
// (roughly, per transition of the model) and none for the rest. It
// returns the number of probe solves.
func (e *encoding) canonicalize() (solves int) {
	e.solver.MaxConflicts = 0
	k := e.n * e.numSyms * e.n
	if cap(e.rel) < k {
		e.rel = make([]bool, k)
	}
	e.rel = e.rel[:k]
	e.snapshot(0)
	asm := e.assumptions()
	fixed := append(make([]sat.Lit, 0, len(asm)+k), asm...)
	for i := range e.rel {
		v := e.tVar(i)
		if e.rel[i] {
			solves++
			if e.solver.SolveAssuming(append(fixed, sat.Neg(v))...) != sat.Sat {
				fixed = append(fixed, sat.Pos(v))
				continue
			}
			e.snapshot(i)
		}
		fixed = append(fixed, sat.Neg(v))
	}
	return solves
}

// tVar returns the transition variable at flat index i of the n-state
// relation: i = (s·|Σ| + p)·n + s'.
func (e *encoding) tVar(i int) int {
	return e.tVars[i/(e.numSyms*e.n)][i/e.n%e.numSyms][i%e.n]
}

// snapshot copies the solver's model into e.rel from flat index from
// on; earlier entries are already fixed, so the model agrees with them.
func (e *encoding) snapshot(from int) {
	for i := from; i < len(e.rel); i++ {
		e.rel[i] = e.solver.Value(e.tVar(i))
	}
}

// extract decodes the canonical relation e.rel into an NFA over the
// symbol names: the automaton's transition relation is exactly the set
// of true transition variables. Callers canonicalize first.
func (e *encoding) extract(symbols []string) *automaton.NFA {
	m := automaton.MustNew(e.n, 0)
	for i, on := range e.rel {
		if on {
			m.MustAddTransition(automaton.State(i/(e.numSyms*e.n)), symbols[i/e.n%e.numSyms], automaton.State(i%e.n))
		}
	}
	return m
}
