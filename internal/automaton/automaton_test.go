package automaton

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// counterNFA builds the paper's Fig 5 counter automaton shape:
// q1 -(up)-> q1/q2, q2 -(peak)-> q3, q3 -(down)-> q3/q4, q4 -(low)-> q1.
func counterNFA(t *testing.T) *NFA {
	t.Helper()
	m := MustNew(4, 0)
	m.MustAddTransition(0, "up", 0)
	m.MustAddTransition(0, "peak", 1)
	m.MustAddTransition(1, "down", 2)
	m.MustAddTransition(2, "down", 2)
	m.MustAddTransition(2, "low", 3)
	m.MustAddTransition(3, "up", 0)
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 0); err == nil {
		t.Error("zero states accepted")
	}
	if _, err := New(3, 3); err == nil {
		t.Error("out-of-range initial accepted")
	}
	if _, err := New(3, -1); err == nil {
		t.Error("negative initial accepted")
	}
}

func TestAddTransition(t *testing.T) {
	m := MustNew(2, 0)
	if err := m.AddTransition(0, "a", 5); err == nil {
		t.Error("out-of-range target accepted")
	}
	if err := m.AddTransition(-1, "a", 0); err == nil {
		t.Error("out-of-range source accepted")
	}
	m.MustAddTransition(0, "a", 1)
	m.MustAddTransition(0, "a", 1) // duplicate ignored
	if m.NumTransitions() != 1 {
		t.Errorf("NumTransitions = %d, want 1", m.NumTransitions())
	}
	if got := m.Successors(0, "a"); len(got) != 1 || got[0] != 1 {
		t.Errorf("Successors = %v", got)
	}
	if got := m.Successors(1, "a"); len(got) != 0 {
		t.Errorf("Successors of sink = %v", got)
	}
}

// TestStep: Step agrees with the first of Successors on every (state,
// symbol) pair, absent symbols included, and copies nothing.
func TestStep(t *testing.T) {
	m := counterNFA(t)
	m.MustAddTransition(1, "down", 0) // a nondeterministic pair: least successor first
	m.MustAddTransition(3, "up", 3)
	for q := State(0); q < 4; q++ {
		for _, sym := range []string{"up", "peak", "down", "low", "absent"} {
			got, ok := m.Step(q, sym)
			succ := m.Successors(q, sym)
			if ok != (len(succ) > 0) || ok && got != succ[0] {
				t.Errorf("Step(%d, %s) = %d, %v; Successors = %v", q, sym, got, ok, succ)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { m.Step(2, "down") }); allocs != 0 {
		t.Errorf("Step allocates %.1f times", allocs)
	}
}

func TestAcceptsAndRun(t *testing.T) {
	m := counterNFA(t)
	accepted := [][]string{
		{},
		{"up"},
		{"up", "up", "peak", "down", "down", "low", "up"},
		{"peak", "down", "low"},
	}
	for _, w := range accepted {
		if !m.Accepts(w) {
			t.Errorf("Accepts(%v) = false, want true", w)
		}
	}
	rejected := [][]string{
		{"down"},
		{"up", "low"},
		{"peak", "peak"},
		{"up", "zzz"},
	}
	for _, w := range rejected {
		if m.Accepts(w) {
			t.Errorf("Accepts(%v) = true, want false", w)
		}
	}
	if got := m.Run([]string{"up", "peak"}); len(got) != 1 || got[0] != 1 {
		t.Errorf("Run = %v, want [1]", got)
	}
	if got := m.Run([]string{"down"}); got != nil {
		t.Errorf("Run on rejected word = %v, want nil", got)
	}
}

func TestNondeterministicRun(t *testing.T) {
	m := MustNew(3, 0)
	m.MustAddTransition(0, "a", 1)
	m.MustAddTransition(0, "a", 2)
	m.MustAddTransition(1, "b", 0)
	if m.IsDeterministic() {
		t.Error("IsDeterministic = true for NFA with fan-out")
	}
	if got := m.Run([]string{"a"}); len(got) != 2 {
		t.Errorf("Run = %v, want two states", got)
	}
	// From state 2, "b" dies; from state 1 it survives.
	if !m.Accepts([]string{"a", "b"}) {
		t.Error("nondeterministic acceptance failed")
	}
}

func TestSymbolSequences(t *testing.T) {
	m := counterNFA(t)
	got := m.SymbolSequences(2)
	want := map[string]bool{
		"up up": true, "up peak": true, "peak down": true,
		"down down": true, "down low": true, "low up": true,
	}
	if len(got) != len(want) {
		t.Fatalf("SymbolSequences(2) = %v, want %d entries", got, len(want))
	}
	for _, w := range got {
		if !want[strings.Join(w, " ")] {
			t.Errorf("unexpected sequence %v", w)
		}
	}
	// l = 1 is the edge-label set.
	if got := m.SymbolSequences(1); len(got) != 4 {
		t.Errorf("SymbolSequences(1) = %v, want 4 distinct labels", got)
	}
	// l = 0 is the empty word only.
	if got := m.SymbolSequences(0); len(got) != 1 || len(got[0]) != 0 {
		t.Errorf("SymbolSequences(0) = %v", got)
	}
}

// TestSymbolSequencesOrder: the words come out deduplicated and in
// the order of their NUL-joined text, which the learner's blocked
// grams, and so its clauses, follow.
func TestSymbolSequencesOrder(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	syms := []string{"b", "a", "ab", "c", "ba"}
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(4)
		m := MustNew(n, 0)
		for e := 0; e < 3*n; e++ {
			m.MustAddTransition(State(r.Intn(n)), syms[r.Intn(len(syms))], State(r.Intn(n)))
		}
		for _, l := range []int{1, 2, 3} {
			got := m.SymbolSequences(l)
			seen := map[string]bool{}
			var want []string
			for _, w := range got {
				key := strings.Join(w, "\x00")
				if seen[key] {
					t.Fatalf("l=%d: %v listed twice", l, w)
				}
				seen[key] = true
				want = append(want, key)
			}
			if !sort.StringsAreSorted(want) {
				t.Fatalf("l=%d: words out of order: %q", l, want)
			}
		}
	}
}

// TestSymbolSequencesAllocs: enumeration allocates per distinct word,
// not per path or per sort comparison.
func TestSymbolSequencesAllocs(t *testing.T) {
	syms := []string{"p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"}
	m := MustNew(6, 0)
	for s := 0; s < 6; s++ {
		for i, sym := range syms {
			m.MustAddTransition(State(s), sym, State((s+i)%6))
		}
	}
	words := len(m.SymbolSequences(2))
	allocs := testing.AllocsPerRun(10, func() { m.SymbolSequences(2) })
	if limit := float64(3*words + 32); allocs > limit {
		t.Errorf("SymbolSequences(2) made %.0f allocations for %d words, want at most %.0f", allocs, words, limit)
	}
}

func TestStatePaths(t *testing.T) {
	m := counterNFA(t)
	paths := m.StatePaths([]string{"up", "peak"})
	// "up" loops at q0 or enters from q3; "up peak" realisable as
	// 0-0-1 and 3-0-1.
	if len(paths) != 2 {
		t.Fatalf("StatePaths = %v, want 2 paths", paths)
	}
	for _, p := range paths {
		if len(p) != 3 || p[len(p)-1] != 1 {
			t.Errorf("bad path %v", p)
		}
	}
	if got := m.StatePaths([]string{"zzz"}); len(got) != 0 {
		t.Errorf("StatePaths for unknown symbol = %v", got)
	}
}

func TestReachable(t *testing.T) {
	m := MustNew(4, 0)
	m.MustAddTransition(0, "a", 1)
	m.MustAddTransition(1, "b", 0)
	m.MustAddTransition(3, "c", 2) // unreachable island
	r := m.Reachable()
	if !r[0] || !r[1] || r[2] || r[3] {
		t.Errorf("Reachable = %v", r)
	}
}

func TestDOTOutput(t *testing.T) {
	m := counterNFA(t)
	dot := m.DOT("counter")
	for _, want := range []string{
		"digraph \"counter\"",
		"__start -> q1",
		"q1 -> q2 [label=\"peak\"]",
		"q3 -> q3 [label=\"down\"]",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Merged labels between same state pair.
	m2 := MustNew(2, 0)
	m2.MustAddTransition(0, "a", 1)
	m2.MustAddTransition(0, "b", 1)
	if dot := m2.DOT("m"); !strings.Contains(dot, "a\\nb") {
		t.Errorf("labels not merged:\n%s", dot)
	}
	// Quotes in labels escaped.
	m3 := MustNew(1, 0)
	m3.MustAddTransition(0, `x = "y"`, 0)
	if dot := m3.DOT("m"); !strings.Contains(dot, `\"y\"`) {
		t.Errorf("quotes not escaped:\n%s", dot)
	}
}

func TestStringOutput(t *testing.T) {
	m := counterNFA(t)
	s := m.String()
	if !strings.Contains(s, "states: 4, initial: q1") {
		t.Errorf("String header wrong:\n%s", s)
	}
	if !strings.Contains(s, "q1 -[peak]-> q2") {
		t.Errorf("String missing transition:\n%s", s)
	}
}

func TestEquivalent(t *testing.T) {
	a := counterNFA(t)
	b := counterNFA(t)
	if !Equivalent(a, b) {
		t.Error("identical automata not equivalent")
	}
	// Renamed states: 0<->3 swapped, initial adjusted.
	c := MustNew(4, 3)
	c.MustAddTransition(3, "up", 3)
	c.MustAddTransition(3, "peak", 1)
	c.MustAddTransition(1, "down", 2)
	c.MustAddTransition(2, "down", 2)
	c.MustAddTransition(2, "low", 0)
	c.MustAddTransition(0, "up", 3)
	if !Equivalent(a, c) {
		t.Error("renamed automaton not equivalent")
	}
	// Different structure.
	d := counterNFA(t)
	d.MustAddTransition(1, "up", 1)
	if Equivalent(a, d) {
		t.Error("different automata reported equivalent")
	}
	e := MustNew(3, 0)
	if Equivalent(a, e) {
		t.Error("different sizes reported equivalent")
	}
}

// Property: every SymbolSequences(l) word is accepted from some state,
// and random accepted words' l-grams are all in SymbolSequences(l).
func TestPropertySequencesConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	syms := []string{"a", "b", "c"}
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(4)
		m := MustNew(n, 0)
		for e := 0; e < n*2; e++ {
			m.MustAddTransition(State(r.Intn(n)), syms[r.Intn(len(syms))], State(r.Intn(n)))
		}
		for _, l := range []int{1, 2, 3} {
			for _, w := range m.SymbolSequences(l) {
				if !m.AcceptsAnywhere(w) {
					t.Fatalf("sequence %v not accepted anywhere", w)
				}
				if len(m.StatePaths(w)) == 0 {
					t.Fatalf("sequence %v has no state path", w)
				}
			}
		}
		// Random walk produces a word whose bigrams must appear in
		// SymbolSequences(2).
		grams := map[string]bool{}
		for _, w := range m.SymbolSequences(2) {
			grams[w[0]+" "+w[1]] = true
		}
		q := State(0)
		var word []string
	walk:
		for step := 0; step < 10; step++ {
			for _, sym := range syms {
				succ := m.Successors(q, sym)
				if len(succ) > 0 {
					word = append(word, sym)
					q = succ[r.Intn(len(succ))]
					continue walk
				}
			}
			break
		}
		for i := 0; i+1 < len(word); i++ {
			if !grams[word[i]+" "+word[i+1]] {
				t.Fatalf("walk bigram %q missing from SymbolSequences(2)", word[i]+" "+word[i+1])
			}
		}
	}
}
