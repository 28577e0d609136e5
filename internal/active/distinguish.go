// SAT search for distinguishing input sequences: the equivalence
// check of the active-learning loop. Two successive hypothesis
// automata are unrolled side by side over a shared symbolic word
// (a product encoding, depth-bounded like the paper's CBMC unrolling
// of the learner's hypothesis), and the solver is asked for a word one
// automaton can run to the end while the other has died. Iterating the
// depth from 1 up yields a shortest such word; fixing the word's
// symbols greedily in alphabet order under the solver's assumptions
// interface makes the result the lexicographically least one — fully
// deterministic tie-breaking, so probe rounds are reproducible.
package active

import (
	"fmt"

	"repro/internal/automaton"
	"repro/internal/sat"
)

// Distinction is a shortest distinguishing word between two automata:
// running Word from both initial states, one automaton survives every
// step while the other has no transition at some step.
type Distinction struct {
	// Word is the lexicographically least shortest distinguishing
	// word, over the union of the two automata's alphabets.
	Word []string
	// ASurvives reports which automaton runs Word to the end: true
	// means a survives and b dies, false the converse.
	ASurvives bool
}

// Distinguish searches for a shortest distinguishing word of length at
// most maxDepth between two deterministic automata. It returns nil
// when none exists up to that depth — the loop's bounded-equivalence
// fixpoint certificate. Ties are broken deterministically: shortest
// first, then the automaton order (a-survives before b-survives), then
// lexicographically least in the union-alphabet order.
func Distinguish(a, b *automaton.NFA, maxDepth int) (*Distinction, error) {
	if !a.IsDeterministic() || !b.IsDeterministic() {
		return nil, fmt.Errorf("active: distinguish requires deterministic automata")
	}
	sigma := unionAlphabet(a, b)
	if len(sigma) == 0 {
		return nil, nil
	}
	for d := 1; d <= maxDepth; d++ {
		u := unroll(a, b, sigma, d)
		for _, aSurvives := range []bool{true, false} {
			target := u.target(aSurvives)
			if u.s.SolveAssuming(target...) != sat.Sat {
				continue
			}
			word, err := u.lexLeastWord(target)
			if err != nil {
				return nil, err
			}
			return &Distinction{Word: word, ASurvives: aSurvives}, nil
		}
	}
	return nil, nil
}

// unionAlphabet merges the two automata's symbol lists, a's first (in
// its first-seen order), then b's extras in b's order — a canonical
// order for the lex-least extraction.
func unionAlphabet(a, b *automaton.NFA) []string {
	sigma := a.Symbols()
	seen := make(map[string]bool, len(sigma))
	for _, s := range sigma {
		seen[s] = true
	}
	for _, s := range b.Symbols() {
		if !seen[s] {
			seen[s] = true
			sigma = append(sigma, s)
		}
	}
	return sigma
}

// unrolling is the depth-d product encoding: one-hot symbol choice
// variables per step, and per automaton a one-hot state-or-dead
// valuation per time point whose evolution the transition clauses
// force to follow the chosen word.
type unrolling struct {
	s     *sat.Solver
	sigma []string
	sym   [][]int // sym[t][k]: word symbol t is sigma[k]
	deadA []int   // deadA[t]: a has died by time t
	deadB []int
}

// unroll builds the encoding for word length d.
func unroll(a, b *automaton.NFA, sigma []string, d int) *unrolling {
	u := &unrolling{s: sat.New(), sigma: sigma}
	u.sym = make([][]int, d)
	for t := range u.sym {
		u.sym[t] = newVars(u.s, len(sigma))
		exactlyOne(u.s, u.sym[t])
	}
	u.deadA = u.encodeRun(a, d)
	u.deadB = u.encodeRun(b, d)
	return u
}

// encodeRun adds the run variables and clauses for one deterministic
// automaton and returns its dead-by-time-t variables.
func (u *unrolling) encodeRun(m *automaton.NFA, d int) []int {
	n := m.NumStates()
	q := make([][]int, d+1)
	dead := make([]int, d+1)
	for t := 0; t <= d; t++ {
		q[t] = newVars(u.s, n)
		dead[t] = u.s.NewVar()
		exactlyOne(u.s, append(append([]int(nil), q[t]...), dead[t]))
	}
	// The run starts in the initial state; with the exactly-one
	// constraint this pins the whole time-0 valuation.
	u.s.AddClause(sat.Pos(q[0][int(m.Initial())]))
	for t := 0; t < d; t++ {
		// Death is absorbing.
		u.s.AddClause(sat.Neg(dead[t]), sat.Pos(dead[t+1]))
		for i := 0; i < n; i++ {
			for k, symb := range u.sigma {
				if next, ok := m.Step(automaton.State(i), symb); ok {
					u.s.AddClause(sat.Neg(q[t][i]), sat.Neg(u.sym[t][k]), sat.Pos(q[t+1][int(next)]))
				} else {
					u.s.AddClause(sat.Neg(q[t][i]), sat.Neg(u.sym[t][k]), sat.Pos(dead[t+1]))
				}
			}
		}
	}
	return dead
}

// target returns the query assumptions: one automaton dead at the
// final time point, the other still alive.
func (u *unrolling) target(aSurvives bool) []sat.Lit {
	d := len(u.deadA) - 1
	if aSurvives {
		return []sat.Lit{sat.Neg(u.deadA[d]), sat.Pos(u.deadB[d])}
	}
	return []sat.Lit{sat.Pos(u.deadA[d]), sat.Neg(u.deadB[d])}
}

// lexLeastWord fixes the word's symbols greedily, first position
// first, lowest alphabet index first, keeping the target satisfiable —
// the canonical witness among all words of this length.
func (u *unrolling) lexLeastWord(target []sat.Lit) ([]string, error) {
	fixed := append([]sat.Lit(nil), target...)
	word := make([]string, 0, len(u.sym))
	for t := range u.sym {
		found := false
		for k := range u.sigma {
			if u.s.SolveAssuming(append(fixed, sat.Pos(u.sym[t][k]))...) == sat.Sat {
				fixed = append(fixed, sat.Pos(u.sym[t][k]))
				word = append(word, u.sigma[k])
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("active: lex extraction lost satisfiability at position %d", t)
		}
	}
	return word, nil
}

// newVars allocates n fresh solver variables.
func newVars(s *sat.Solver, n int) []int {
	vars := make([]int, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	return vars
}

// exactlyOne constrains exactly one of the variables to be true
// (pairwise encoding; the sets here are alphabet- or state-sized).
func exactlyOne(s *sat.Solver, vars []int) {
	lits := make([]sat.Lit, len(vars))
	for i, v := range vars {
		lits[i] = sat.Pos(v)
	}
	s.AddClause(lits...)
	for i := 0; i < len(vars); i++ {
		for j := i + 1; j < len(vars); j++ {
			s.AddClause(sat.Neg(vars[i]), sat.Neg(vars[j]))
		}
	}
}
