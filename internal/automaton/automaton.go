// Package automaton provides the non-deterministic finite automata
// that the learner produces (Definition 1 of the paper) and the
// queries the algorithm needs over them: runs over predicate-labelled
// words, enumeration of all length-l transition sequences (for the
// compliance check), reachability, and DOT/text rendering.
//
// Alphabet symbols are transition predicates, identified by their
// canonical string form; the automaton itself stores opaque symbol
// identifiers plus a display label, so it serves both the core learner
// (predicate alphabet) and the state-merge baselines (raw event
// alphabet).
package automaton

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// State is an automaton state, numbered from 0. The paper numbers
// states from 1; rendering adds one.
type State int

// Transition is one labelled edge.
type Transition struct {
	From   State
	Symbol string // canonical symbol (predicate text or event name)
	To     State
}

// NFA is a nondeterministic finite automaton in which every state is
// accepting: words are rejected only by running into a dead end
// (Section II). The zero value is not usable; call New.
type NFA struct {
	numStates int
	initial   State
	// delta[from][symbol] = successor set, kept sorted.
	delta []map[string][]State
	// symbols in first-seen order, for deterministic rendering.
	symbols []string
	symSeen map[string]bool
}

// New returns an automaton with numStates states and the given initial
// state and no transitions.
func New(numStates int, initial State) (*NFA, error) {
	if numStates <= 0 {
		return nil, fmt.Errorf("automaton: numStates %d must be positive", numStates)
	}
	if initial < 0 || int(initial) >= numStates {
		return nil, fmt.Errorf("automaton: initial state %d out of range [0,%d)", initial, numStates)
	}
	m := &NFA{
		numStates: numStates,
		initial:   initial,
		delta:     make([]map[string][]State, numStates),
		symSeen:   map[string]bool{},
	}
	for i := range m.delta {
		m.delta[i] = map[string][]State{}
	}
	return m, nil
}

// MustNew is New that panics on error.
func MustNew(numStates int, initial State) *NFA {
	m, err := New(numStates, initial)
	if err != nil {
		panic(err)
	}
	return m
}

// NumStates returns the number of states.
func (m *NFA) NumStates() int { return m.numStates }

// Initial returns the initial state.
func (m *NFA) Initial() State { return m.initial }

// Symbols returns the alphabet in first-seen order.
func (m *NFA) Symbols() []string { return append([]string(nil), m.symbols...) }

// AddTransition inserts an edge; duplicates are ignored.
func (m *NFA) AddTransition(from State, symbol string, to State) error {
	if from < 0 || int(from) >= m.numStates || to < 0 || int(to) >= m.numStates {
		return fmt.Errorf("automaton: transition %d -%s-> %d out of range", from, symbol, to)
	}
	succ := m.delta[from][symbol]
	for _, s := range succ {
		if s == to {
			return nil
		}
	}
	succ = append(succ, to)
	sort.Slice(succ, func(i, j int) bool { return succ[i] < succ[j] })
	m.delta[from][symbol] = succ
	if !m.symSeen[symbol] {
		m.symSeen[symbol] = true
		m.symbols = append(m.symbols, symbol)
	}
	return nil
}

// MustAddTransition is AddTransition that panics on error.
func (m *NFA) MustAddTransition(from State, symbol string, to State) {
	if err := m.AddTransition(from, symbol, to); err != nil {
		panic(err)
	}
}

// Successors returns the successor states of (from, symbol).
func (m *NFA) Successors(from State, symbol string) []State {
	return append([]State(nil), m.delta[from][symbol]...)
}

// Step returns the least successor of (from, symbol) — the only one in
// a deterministic automaton — and false when there is none. Unlike
// Successors it copies nothing, so walking a trace through a model
// allocates nothing per step.
func (m *NFA) Step(from State, symbol string) (State, bool) {
	succ := m.delta[from][symbol]
	if len(succ) == 0 {
		return 0, false
	}
	return succ[0], true
}

// Transitions returns all edges in deterministic order (by from state,
// then symbol first-seen order, then to state).
func (m *NFA) Transitions() []Transition {
	var out []Transition
	for from := 0; from < m.numStates; from++ {
		for _, sym := range m.symbols {
			for _, to := range m.delta[from][sym] {
				out = append(out, Transition{From: State(from), Symbol: sym, To: to})
			}
		}
	}
	return out
}

// NumTransitions counts edges.
func (m *NFA) NumTransitions() int {
	n := 0
	for from := 0; from < m.numStates; from++ {
		for _, succ := range m.delta[from] {
			n += len(succ)
		}
	}
	return n
}

// IsDeterministic reports whether every (state, symbol) pair has at
// most one successor — the "at most one transition from any state
// labelled with any given predicate" constraint the learner enforces.
func (m *NFA) IsDeterministic() bool {
	for from := 0; from < m.numStates; from++ {
		for _, succ := range m.delta[from] {
			if len(succ) > 1 {
				return false
			}
		}
	}
	return true
}

// Accepts reports whether the automaton accepts the word (every state
// accepting; rejection only by dead end). Acceptance from the initial
// state.
func (m *NFA) Accepts(word []string) bool {
	return m.AcceptsFrom(m.initial, word)
}

// AcceptsFrom reports acceptance of the word starting at the given
// state.
func (m *NFA) AcceptsFrom(start State, word []string) bool {
	cur := map[State]bool{start: true}
	for _, sym := range word {
		next := map[State]bool{}
		for q := range cur {
			for _, s := range m.delta[q][sym] {
				next[s] = true
			}
		}
		if len(next) == 0 {
			return false
		}
		cur = next
	}
	return true
}

// AcceptsAnywhere reports whether the word labels a path starting at
// any state. The compliance loop uses this to test embedded segments.
func (m *NFA) AcceptsAnywhere(word []string) bool {
	for q := 0; q < m.numStates; q++ {
		if m.AcceptsFrom(State(q), word) {
			return true
		}
	}
	return false
}

// SymbolSequences returns the set of words of exactly length l that
// label a transition sequence anywhere in the automaton — the set S_l
// of the paper's compliance check (line 41 of Algorithm 1) — sorted
// element by element.
func (m *NFA) SymbolSequences(l int) [][]string {
	var out [][]string
	seen := map[string]bool{}
	word := make([]string, 0, l)
	key := make([]byte, 0, 4*l) // the word's symbol indices
	var dfs func(q State, depth int)
	dfs = func(q State, depth int) {
		if depth == l {
			if !seen[string(key)] {
				seen[string(key)] = true
				out = append(out, append([]string(nil), word...))
			}
			return
		}
		for i, sym := range m.symbols {
			for _, to := range m.delta[q][sym] {
				word = append(word, sym)
				key = binary.LittleEndian.AppendUint32(key, uint32(i))
				dfs(to, depth+1)
				word = word[:len(word)-1]
				key = key[:len(key)-4]
			}
		}
	}
	for q := 0; q < m.numStates; q++ {
		dfs(State(q), 0)
	}
	slices.SortFunc(out, slices.Compare[[]string])
	return out
}

// StatePaths returns every state path q0..ql realising the given word
// somewhere in the automaton. The learner uses this to translate an
// invalid symbol sequence into blocking constraints.
func (m *NFA) StatePaths(word []string) [][]State {
	var out [][]State
	path := make([]State, 0, len(word)+1)
	var dfs func(q State, depth int)
	dfs = func(q State, depth int) {
		path = append(path, q)
		defer func() { path = path[:len(path)-1] }()
		if depth == len(word) {
			out = append(out, append([]State(nil), path...))
			return
		}
		for _, to := range m.delta[q][word[depth]] {
			dfs(to, depth+1)
		}
	}
	for q := 0; q < m.numStates; q++ {
		dfs(State(q), 0)
	}
	return out
}

// Reachable returns the set of states reachable from the initial
// state.
func (m *NFA) Reachable() map[State]bool {
	seen := map[State]bool{m.initial: true}
	stack := []State{m.initial}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, succ := range m.delta[q] {
			for _, s := range succ {
				if !seen[s] {
					seen[s] = true
					stack = append(stack, s)
				}
			}
		}
	}
	return seen
}

// Run consumes the word from the initial state and returns the set of
// states the automaton can be in afterwards (empty means rejected).
func (m *NFA) Run(word []string) []State {
	cur := map[State]bool{m.initial: true}
	for _, sym := range word {
		next := map[State]bool{}
		for q := range cur {
			for _, s := range m.delta[q][sym] {
				next[s] = true
			}
		}
		if len(next) == 0 {
			return nil
		}
		cur = next
	}
	out := make([]State, 0, len(cur))
	for q := range cur {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders a compact text listing: one transition per line.
func (m *NFA) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "states: %d, initial: q%d\n", m.numStates, m.initial+1)
	for _, tr := range m.Transitions() {
		fmt.Fprintf(&b, "  q%d -[%s]-> q%d\n", tr.From+1, tr.Symbol, tr.To+1)
	}
	return b.String()
}

// DOT renders the automaton in Graphviz format. Edges between the same
// state pair are merged onto one arrow with newline-separated labels,
// matching the style of the paper's figures.
func (m *NFA) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	b.WriteString("  rankdir=LR;\n")
	b.WriteString("  node [shape=circle];\n")
	fmt.Fprintf(&b, "  __start [shape=point];\n  __start -> q%d;\n", m.initial+1)
	for q := 0; q < m.numStates; q++ {
		fmt.Fprintf(&b, "  q%d [label=\"q%d\"];\n", q+1, q+1)
	}
	// Group labels per (from, to).
	type pair struct{ from, to State }
	labels := map[pair][]string{}
	var order []pair
	for _, tr := range m.Transitions() {
		p := pair{tr.From, tr.To}
		if _, ok := labels[p]; !ok {
			order = append(order, p)
		}
		labels[p] = append(labels[p], tr.Symbol)
	}
	for _, p := range order {
		lbl := strings.Join(labels[p], "\\n")
		lbl = strings.ReplaceAll(lbl, `"`, `\"`)
		fmt.Fprintf(&b, "  q%d -> q%d [label=\"%s\"];\n", p.from+1, p.to+1, lbl)
	}
	b.WriteString("}\n")
	return b.String()
}

// Equivalent reports whether two automata have identical transition
// structure up to a bijective state renaming found greedily from the
// initial states (sufficient for the deterministic automata produced
// by the learner; it is not a general NFA-equivalence decision).
func Equivalent(a, b *NFA) bool {
	if a.numStates != b.numStates {
		return false
	}
	mapping := map[State]State{a.initial: b.initial}
	used := map[State]bool{b.initial: true}
	queue := []State{a.initial}
	for len(queue) > 0 {
		qa := queue[0]
		queue = queue[1:]
		qb := mapping[qa]
		if len(a.delta[qa]) != len(b.delta[qb]) {
			return false
		}
		for sym, succA := range a.delta[qa] {
			succB := b.delta[qb][sym]
			if len(succA) != len(succB) {
				return false
			}
			// Deterministic case: single successor each.
			if len(succA) == 1 {
				ta, tb := succA[0], succB[0]
				if mt, ok := mapping[ta]; ok {
					if mt != tb {
						return false
					}
					continue
				}
				if used[tb] {
					return false
				}
				mapping[ta] = tb
				used[tb] = true
				queue = append(queue, ta)
				continue
			}
			// Nondeterministic fan-out: compare successor sets
			// only through already-established mappings.
			for i := range succA {
				mt, ok := mapping[succA[i]]
				if !ok {
					mapping[succA[i]] = succB[i]
					used[succB[i]] = true
					queue = append(queue, succA[i])
					continue
				}
				if mt != succB[i] {
					return false
				}
			}
		}
	}
	return a.NumTransitions() == b.NumTransitions()
}
