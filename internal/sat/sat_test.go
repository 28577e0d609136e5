package sat

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// bruteForce decides satisfiability of a clause set by enumeration;
// the reference oracle for property tests (≤ ~20 variables).
func bruteForce(nVars int, clauses [][]Lit) (bool, []bool) {
	assign := make([]bool, nVars)
	var try func(v int) bool
	satisfied := func() bool {
		for _, c := range clauses {
			ok := false
			for _, l := range c {
				if assign[l.Var()] != l.Sign() {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	try = func(v int) bool {
		if v == nVars {
			return satisfied()
		}
		assign[v] = false
		if try(v + 1) {
			return true
		}
		assign[v] = true
		return try(v + 1)
	}
	return try(0), assign
}

func mkSolver(nVars int, clauses [][]Lit) *Solver {
	s := New()
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	for _, c := range clauses {
		s.AddClause(c...)
	}
	return s
}

// checkModel verifies that the solver's model satisfies every clause.
func checkModel(t *testing.T, s *Solver, clauses [][]Lit) {
	t.Helper()
	for _, c := range clauses {
		ok := false
		for _, l := range c {
			if s.Value(l.Var()) != l.Sign() {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("model violates clause %v", c)
		}
	}
}

func TestTrivial(t *testing.T) {
	s := New()
	if s.Solve() != Sat {
		t.Fatal("empty formula not SAT")
	}
	v := s.NewVar()
	s.AddClause(Pos(v))
	if s.Solve() != Sat || !s.Value(v) {
		t.Fatal("unit clause not honoured")
	}
	if ok := s.AddClause(Neg(v)); ok {
		t.Fatal("contradicting unit accepted")
	}
	if s.Solve() != Unsat {
		t.Fatal("x ∧ ¬x not UNSAT")
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	if s.AddClause() {
		t.Fatal("empty clause accepted")
	}
	if s.Solve() != Unsat {
		t.Fatal("empty clause not UNSAT")
	}
}

func TestTautologyAndDuplicates(t *testing.T) {
	s := New()
	v := s.NewVar()
	w := s.NewVar()
	if !s.AddClause(Pos(v), Neg(v)) {
		t.Fatal("tautology rejected")
	}
	if !s.AddClause(Pos(w), Pos(w), Pos(w)) {
		t.Fatal("duplicate literals rejected")
	}
	if s.Solve() != Sat || !s.Value(w) {
		t.Fatal("duplicate unit not propagated")
	}
}

func TestSimpleImplicationChain(t *testing.T) {
	// x0 ∧ (¬x0∨x1) ∧ (¬x1∨x2) ∧ … forces all true.
	const n = 50
	s := New()
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	s.AddClause(Pos(0))
	for i := 0; i+1 < n; i++ {
		s.AddClause(Neg(i), Pos(i+1))
	}
	if s.Solve() != Sat {
		t.Fatal("chain not SAT")
	}
	for i := 0; i < n; i++ {
		if !s.Value(i) {
			t.Fatalf("var %d not forced true", i)
		}
	}
}

// pigeonhole encodes PHP(n+1, n): n+1 pigeons in n holes, classic
// exponentially-hard UNSAT family (kept small).
func pigeonhole(pigeons, holes int) (int, [][]Lit) {
	va := func(p, h int) int { return p*holes + h }
	var clauses [][]Lit
	for p := 0; p < pigeons; p++ {
		c := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			c[h] = Pos(va(p, h))
		}
		clauses = append(clauses, c)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				clauses = append(clauses, []Lit{Neg(va(p1, h)), Neg(va(p2, h))})
			}
		}
	}
	return pigeons * holes, clauses
}

func TestPigeonholeUnsat(t *testing.T) {
	for holes := 2; holes <= 6; holes++ {
		nv, clauses := pigeonhole(holes+1, holes)
		s := mkSolver(nv, clauses)
		if got := s.Solve(); got != Unsat {
			t.Errorf("PHP(%d,%d) = %v, want UNSAT", holes+1, holes, got)
		}
	}
}

func TestPigeonholeSat(t *testing.T) {
	nv, clauses := pigeonhole(5, 5)
	s := mkSolver(nv, clauses)
	if got := s.Solve(); got != Sat {
		t.Fatalf("PHP(5,5) = %v, want SAT", got)
	}
	checkModel(t, s, clauses)
}

// TestRandom3SATAgainstBruteForce fuzzes the solver against the
// enumeration oracle on random 3-SAT near the phase transition.
func TestRandom3SATAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		nVars := 5 + r.Intn(11) // 5..15
		nClauses := int(float64(nVars)*4.2) + r.Intn(5)
		clauses := make([][]Lit, nClauses)
		for i := range clauses {
			c := make([]Lit, 3)
			for j := range c {
				v := r.Intn(nVars)
				if r.Intn(2) == 0 {
					c[j] = Pos(v)
				} else {
					c[j] = Neg(v)
				}
			}
			clauses[i] = c
		}
		wantSat, _ := bruteForce(nVars, clauses)
		s := mkSolver(nVars, clauses)
		got := s.Solve()
		if (got == Sat) != wantSat {
			t.Fatalf("trial %d: solver=%v brute=%v (vars=%d clauses=%d)", trial, got, wantSat, nVars, nClauses)
		}
		if got == Sat {
			checkModel(t, s, clauses)
		}
	}
}

// TestRandomWideClausesAgainstBruteForce uses mixed clause widths
// (1..5) to exercise unit propagation and long-clause watching.
func TestRandomWideClausesAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 300; trial++ {
		nVars := 4 + r.Intn(9)
		nClauses := 2 + r.Intn(4*nVars)
		clauses := make([][]Lit, nClauses)
		for i := range clauses {
			width := 1 + r.Intn(5)
			c := make([]Lit, width)
			for j := range c {
				v := r.Intn(nVars)
				if r.Intn(2) == 0 {
					c[j] = Pos(v)
				} else {
					c[j] = Neg(v)
				}
			}
			clauses[i] = c
		}
		wantSat, _ := bruteForce(nVars, clauses)
		s := mkSolver(nVars, clauses)
		got := s.Solve()
		if (got == Sat) != wantSat {
			t.Fatalf("trial %d: solver=%v brute=%v", trial, got, wantSat)
		}
		if got == Sat {
			checkModel(t, s, clauses)
		}
	}
}

// TestIncremental adds blocking clauses between Solve calls, the usage
// pattern of the model learner's refinement loop.
func TestIncremental(t *testing.T) {
	const n = 4
	s := New()
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	// At least one true.
	s.AddClause(Pos(0), Pos(1), Pos(2), Pos(3))
	models := 0
	for {
		if s.Solve() != Sat {
			break
		}
		models++
		if models > 20 {
			t.Fatal("too many models")
		}
		// Block the found model.
		block := make([]Lit, n)
		for v := 0; v < n; v++ {
			if s.Value(v) {
				block[v] = Neg(v)
			} else {
				block[v] = Pos(v)
			}
		}
		s.AddClause(block...)
	}
	if models != 15 {
		t.Fatalf("enumerated %d models, want 15", models)
	}
}

func TestPreferredPolarity(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(Pos(a), Pos(b)) // SAT either way
	s.SetPreferredPolarity(a, false)
	s.SetPreferredPolarity(b, true)
	if s.Solve() != Sat {
		t.Fatal("not SAT")
	}
	if s.Value(a) || !s.Value(b) {
		t.Errorf("polarity preference ignored: a=%v b=%v", s.Value(a), s.Value(b))
	}
}

func TestGraphColouring(t *testing.T) {
	// K4 is 4-colourable but not 3-colourable.
	colour := func(k int) Status {
		s := New()
		va := func(node, c int) int { return node*k + c }
		for i := 0; i < 4*k; i++ {
			s.NewVar()
		}
		for node := 0; node < 4; node++ {
			c := make([]Lit, k)
			for j := 0; j < k; j++ {
				c[j] = Pos(va(node, j))
			}
			s.AddClause(c...)
		}
		for n1 := 0; n1 < 4; n1++ {
			for n2 := n1 + 1; n2 < 4; n2++ {
				for j := 0; j < k; j++ {
					s.AddClause(Neg(va(n1, j)), Neg(va(n2, j)))
				}
			}
		}
		return s.Solve()
	}
	if colour(3) != Unsat {
		t.Error("K4 3-colouring should be UNSAT")
	}
	if colour(4) != Sat {
		t.Error("K4 4-colouring should be SAT")
	}
}

func TestMaxConflictsAborts(t *testing.T) {
	nv, clauses := pigeonhole(8, 7)
	s := mkSolver(nv, clauses)
	s.MaxConflicts = 10
	if got := s.Solve(); got != Unknown && got != Unsat {
		t.Fatalf("limited solve = %v", got)
	}
}

func TestLubySequence(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestLitBasics(t *testing.T) {
	l := Pos(3)
	if l.Var() != 3 || l.Sign() || l.Not() != Neg(3) || l.String() != "4" {
		t.Errorf("Pos(3) basics wrong: %v", l)
	}
	n := Neg(0)
	if n.Var() != 0 || !n.Sign() || n.String() != "-1" {
		t.Errorf("Neg(0) basics wrong: %v", n)
	}
	if Unknown.String() != "UNKNOWN" || Sat.String() != "SAT" || Unsat.String() != "UNSAT" {
		t.Error("Status strings wrong")
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	nv, clauses := pigeonhole(4, 3)
	s := mkSolver(nv, clauses)
	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, s); err != nil {
		t.Fatal(err)
	}
	s2, err := ReadDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Solve() != Unsat {
		t.Error("round-tripped PHP(4,3) not UNSAT")
	}
}

func TestReadDIMACS(t *testing.T) {
	src := `c sample
p cnf 3 2
1 -2 0
2 3 0
`
	s, err := ReadDIMACS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVars() != 3 {
		t.Errorf("vars = %d, want 3", s.NumVars())
	}
	if s.Solve() != Sat {
		t.Error("sample not SAT")
	}
	for _, bad := range []string{
		"p cnf x 2\n1 0\n",
		"p cnf 2 1\n1 zz 0\n",
		"p cnf 2 1\n1 2\n", // unterminated
		"p cnf 1 0\np cnf 1 0\n",
		"p dnf 1 0\n",
	} {
		if _, err := ReadDIMACS(strings.NewReader(bad)); err == nil {
			t.Errorf("ReadDIMACS(%q) succeeded, want error", bad)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	nv, clauses := pigeonhole(6, 5)
	s := mkSolver(nv, clauses)
	s.Solve()
	if s.Stats.Conflicts == 0 || s.Stats.Decisions == 0 || s.Stats.Propagations == 0 {
		t.Errorf("stats empty: %+v", s.Stats)
	}
}

// TestLearntClauseSoundness re-solves with assumptions baked in as
// units in a fresh solver: any model found incrementally must also be
// a model of the original clauses (guards against corrupt learning).
func TestLearntClauseSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 100; trial++ {
		nVars := 8 + r.Intn(6)
		nClauses := 3 * nVars
		clauses := make([][]Lit, nClauses)
		for i := range clauses {
			c := make([]Lit, 3)
			for j := range c {
				v := r.Intn(nVars)
				if r.Intn(2) == 0 {
					c[j] = Pos(v)
				} else {
					c[j] = Neg(v)
				}
			}
			clauses[i] = c
		}
		s := mkSolver(nVars, clauses)
		// Enumerate a few models incrementally; each must satisfy
		// the original formula.
		for round := 0; round < 5; round++ {
			if s.Solve() != Sat {
				break
			}
			checkModel(t, s, clauses)
			block := make([]Lit, nVars)
			for v := 0; v < nVars; v++ {
				if s.Value(v) {
					block[v] = Neg(v)
				} else {
					block[v] = Pos(v)
				}
			}
			s.AddClause(block...)
		}
	}
}

func BenchmarkPigeonholeUnsat(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nv, clauses := pigeonhole(8, 7)
		s := mkSolver(nv, clauses)
		if s.Solve() != Unsat {
			b.Fatal("PHP(8,7) not UNSAT")
		}
	}
}

func BenchmarkRandom3SAT(b *testing.B) {
	r := rand.New(rand.NewSource(99))
	nVars := 60
	nClauses := int(float64(nVars) * 4.1)
	clauses := make([][]Lit, nClauses)
	for i := range clauses {
		c := make([]Lit, 3)
		for j := range c {
			v := r.Intn(nVars)
			if r.Intn(2) == 0 {
				c[j] = Pos(v)
			} else {
				c[j] = Neg(v)
			}
		}
		clauses[i] = c
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := mkSolver(nVars, clauses)
		s.Solve()
	}
}

// TestQuickRandomInstances drives the solver with testing/quick:
// arbitrary clause structure over ≤12 variables must agree with the
// brute-force oracle, and SAT results must verify.
func TestQuickRandomInstances(t *testing.T) {
	type spec struct {
		NVars   uint8
		Clauses [][]int8
	}
	f := func(s spec) bool {
		nVars := int(s.NVars%12) + 1
		var clauses [][]Lit
		for _, raw := range s.Clauses {
			if len(raw) == 0 || len(raw) > 6 {
				continue
			}
			c := make([]Lit, 0, len(raw))
			for _, x := range raw {
				v := int(x)
				if v < 0 {
					v = -v
				}
				v %= nVars
				if x < 0 {
					c = append(c, Neg(v))
				} else {
					c = append(c, Pos(v))
				}
			}
			clauses = append(clauses, c)
		}
		if len(clauses) > 60 {
			clauses = clauses[:60]
		}
		wantSat, _ := bruteForce(nVars, clauses)
		solver := mkSolver(nVars, clauses)
		got := solver.Solve()
		if (got == Sat) != wantSat {
			return false
		}
		if got == Sat {
			for _, c := range clauses {
				ok := false
				for _, l := range c {
					if solver.Value(l.Var()) != l.Sign() {
						ok = true
						break
					}
				}
				if !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// bruteForceAssuming decides satisfiability of clauses plus unit
// assumptions by enumeration.
func bruteForceAssuming(nVars int, clauses [][]Lit, assumptions []Lit) bool {
	all := make([][]Lit, 0, len(clauses)+len(assumptions))
	all = append(all, clauses...)
	for _, a := range assumptions {
		all = append(all, []Lit{a})
	}
	sat, _ := bruteForce(nVars, all)
	return sat
}

func TestSolveAssumingBasic(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(Neg(a), Pos(b)) // a → b
	s.AddClause(Neg(b), Pos(c)) // b → c

	if got := s.SolveAssuming(Pos(a), Neg(c)); got != Unsat {
		t.Fatalf("a ∧ ¬c under a→b→c: got %v, want UNSAT", got)
	}
	// The assumptions, not the clauses, are at fault: the solver must
	// stay usable and the unrestricted formula satisfiable.
	if got := s.Solve(); got != Sat {
		t.Fatalf("formula without assumptions: got %v, want SAT", got)
	}
	if s.UnsatCore() != nil {
		t.Errorf("core after Sat = %v, want nil", s.UnsatCore())
	}
	if got := s.SolveAssuming(Pos(a)); got != Sat {
		t.Fatalf("assuming a alone: got %v, want SAT", got)
	}
	if !s.Value(a) || !s.Value(b) || !s.Value(c) {
		t.Errorf("model under assumption a: a=%v b=%v c=%v, want all true",
			s.Value(a), s.Value(b), s.Value(c))
	}
}

// TestSolveAssumingKeepsTrail: a call that repeats the previous call's
// assumptions resumes from the levels that call left on the trail —
// after a Sat result and after a failed assumption alike — so it
// propagates less than the call that placed them.
func TestSolveAssumingKeepsTrail(t *testing.T) {
	const n = 50
	for _, tc := range []struct {
		want        Status
		assumptions []Lit
	}{
		{Sat, []Lit{Pos(0)}},
		{Unsat, []Lit{Pos(0), Neg(n - 1)}},
	} {
		s := New()
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		for i := 0; i+1 < n; i++ {
			s.AddClause(Neg(i), Pos(i+1)) // x_i → x_{i+1}
		}
		var props [2]int64
		for k := range props {
			before := s.Stats.Propagations
			if got := s.SolveAssuming(tc.assumptions...); got != tc.want {
				t.Fatalf("call %d assuming %v = %v, want %v", k+1, tc.assumptions, got, tc.want)
			}
			props[k] = s.Stats.Propagations - before
		}
		if props[1] >= props[0] {
			t.Errorf("assuming %v: repeat call made %d propagations, first call %d",
				tc.assumptions, props[1], props[0])
		}
		if tc.want == Unsat && len(s.UnsatCore()) != 2 {
			t.Errorf("core after kept-trail Unsat = %v, want both assumptions", s.UnsatCore())
		}
	}
}

func TestUnsatCore(t *testing.T) {
	s := New()
	a, b, c, d := s.NewVar(), s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(Neg(a), Pos(b))
	s.AddClause(Neg(b), Neg(c))
	_ = d // irrelevant assumption below must not enter the core

	if got := s.SolveAssuming(Pos(d), Pos(a), Pos(c)); got != Unsat {
		t.Fatalf("got %v, want UNSAT", got)
	}
	core := s.UnsatCore()
	if core == nil {
		t.Fatal("nil core after assumption UNSAT")
	}
	inCore := map[Lit]bool{}
	for _, l := range core {
		inCore[l] = true
	}
	if inCore[Pos(d)] {
		t.Errorf("irrelevant assumption d in core %v", core)
	}
	if !inCore[Pos(a)] || !inCore[Pos(c)] {
		t.Errorf("core %v missing a or c", core)
	}
}

func TestUnsatCoreContradictoryAssumptions(t *testing.T) {
	s := New()
	v := s.NewVar()
	s.AddClause(Pos(v), Neg(v)) // tautology; formula has no constraints
	if got := s.SolveAssuming(Pos(v), Neg(v)); got != Unsat {
		t.Fatalf("got %v, want UNSAT", got)
	}
	core := s.UnsatCore()
	if len(core) != 2 {
		t.Fatalf("core %v, want both contradictory assumptions", core)
	}
}

func TestUnsatCoreEmptyWhenFormulaUnsat(t *testing.T) {
	nv, clauses := pigeonhole(3, 2)
	s := mkSolver(nv, clauses)
	if got := s.SolveAssuming(Pos(0)); got != Unsat {
		t.Fatalf("got %v, want UNSAT", got)
	}
	if core := s.UnsatCore(); core == nil || len(core) != 0 {
		t.Errorf("core %v, want empty non-nil (formula unsat regardless)", core)
	}
}

func TestSolveAssumingRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		nVars := 3 + rng.Intn(8)
		nClauses := 2 + rng.Intn(4*nVars)
		var clauses [][]Lit
		for i := 0; i < nClauses; i++ {
			var c []Lit
			for len(c) == 0 {
				for v := 0; v < nVars; v++ {
					if rng.Intn(nVars) < 3 {
						if rng.Intn(2) == 0 {
							c = append(c, Pos(v))
						} else {
							c = append(c, Neg(v))
						}
					}
				}
			}
			clauses = append(clauses, c)
		}
		var assumptions []Lit
		for v := 0; v < nVars; v++ {
			if rng.Intn(3) == 0 {
				if rng.Intn(2) == 0 {
					assumptions = append(assumptions, Pos(v))
				} else {
					assumptions = append(assumptions, Neg(v))
				}
			}
		}
		s := mkSolver(nVars, clauses)
		got := s.SolveAssuming(assumptions...)
		want := bruteForceAssuming(nVars, clauses, assumptions)
		if (got == Sat) != want {
			t.Fatalf("iter %d: got %v, brute force says sat=%v\nclauses %v assumptions %v",
				iter, got, want, clauses, assumptions)
		}
		if got == Sat {
			checkModel(t, s, clauses)
			for _, a := range assumptions {
				if s.Value(a.Var()) == a.Sign() {
					t.Fatalf("iter %d: model violates assumption %v", iter, a)
				}
			}
		} else {
			core := s.UnsatCore()
			if core == nil {
				t.Fatalf("iter %d: nil core after UNSAT", iter)
			}
			inAssumptions := map[Lit]bool{}
			for _, a := range assumptions {
				inAssumptions[a] = true
			}
			for _, l := range core {
				if !inAssumptions[l] {
					t.Fatalf("iter %d: core literal %v not among assumptions %v", iter, l, assumptions)
				}
			}
			if bruteForceAssuming(nVars, clauses, core) {
				t.Fatalf("iter %d: core %v not actually inconsistent", iter, core)
			}
			// The solver must remain reusable after an
			// assumption failure.
			plain := s.Solve()
			plainWant, _ := bruteForce(nVars, clauses)
			if (plain == Sat) != plainWant {
				t.Fatalf("iter %d: post-core Solve %v, brute force sat=%v", iter, plain, plainWant)
			}
		}
	}
}

func TestRestartBaseAndDecayKnobs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 50; iter++ {
		nVars := 4 + rng.Intn(6)
		var clauses [][]Lit
		for i := 0; i < 3*nVars; i++ {
			var c []Lit
			for len(c) < 3 {
				v := rng.Intn(nVars)
				if rng.Intn(2) == 0 {
					c = append(c, Pos(v))
				} else {
					c = append(c, Neg(v))
				}
			}
			clauses = append(clauses, c)
		}
		want, _ := bruteForce(nVars, clauses)
		s := mkSolver(nVars, clauses)
		s.RestartBase = 25
		if got := s.Solve(); (got == Sat) != want {
			t.Fatalf("iter %d: RestartBase changed the answer: got %v, want sat=%v", iter, got, want)
		}
	}
}

func TestWriteDIMACSPreservesUnits(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(Pos(a))         // stored as a level-0 assignment
	s.AddClause(Neg(a), Pos(b)) // forces b by propagation
	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, s); err != nil {
		t.Fatal(err)
	}
	s2, err := ReadDIMACS(&buf)
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if s2.Solve() != Sat {
		t.Fatal("round-tripped formula not SAT")
	}
	if !s2.Value(a) || !s2.Value(b) {
		t.Errorf("units lost in round trip: a=%v b=%v, want both true\n%s",
			s2.Value(a), s2.Value(b), buf.String())
	}
}

func TestWriteDIMACSUnsatFormula(t *testing.T) {
	s := New()
	v := s.NewVar()
	s.AddClause(Pos(v))
	s.AddClause(Neg(v)) // ok flips false
	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, s); err != nil {
		t.Fatal(err)
	}
	s2, err := ReadDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Solve() != Unsat {
		t.Errorf("round-tripped unsat formula solved %v\n%s", s2.Solve(), buf.String())
	}
}
