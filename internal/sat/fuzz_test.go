package sat

import (
	"bytes"
	"testing"
)

// solverCNF reconstructs a solver's clause set — stored clauses plus
// level-0 unit assignments plus, for an unsatisfiable-at-top-level
// solver, the empty clause — for cross-checking against bruteForce.
func solverCNF(s *Solver) [][]Lit {
	var cnf [][]Lit
	if !s.ok {
		cnf = append(cnf, []Lit{})
	}
	units := s.trail
	if len(s.trailLim) > 0 {
		units = s.trail[:s.trailLim[0]]
	}
	for _, l := range units {
		cnf = append(cnf, []Lit{l})
	}
	for _, c := range s.clauses {
		cnf = append(cnf, append([]Lit(nil), s.ar.litsOf(c)...))
	}
	return cnf
}

// FuzzDIMACS feeds arbitrary bytes to the DIMACS reader. A successful
// parse must serialize to something that parses back cleanly with the
// same variable count, and — when small enough to brute force — the
// round trip must preserve satisfiability. Byte-level idempotence is
// deliberately not asserted: AddClause simplifies clauses against
// level-0 units, so each write/read round may simplify further.
func FuzzDIMACS(f *testing.F) {
	f.Add([]byte("p cnf 3 2\n1 -2 0\n2 3 0\n"))
	f.Add([]byte("c comment\np cnf 2 2\n1 0\n-1 2 0\n"))
	f.Add([]byte("p cnf 1 2\n1 0\n-1 0\n"))
	f.Add([]byte("p cnf 4 0\n"))
	f.Add([]byte("1 2 0 -1 -2 0"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			t.Skip()
		}
		s1, err := ReadDIMACS(bytes.NewReader(data))
		if err != nil {
			return // rejecting malformed input is fine; panicking is not
		}
		var buf bytes.Buffer
		if err := WriteDIMACS(&buf, s1); err != nil {
			t.Fatalf("WriteDIMACS: %v", err)
		}
		s2, err := ReadDIMACS(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of own output failed: %v\n%s", err, buf.String())
		}
		if s2.NumVars() != s1.NumVars() {
			t.Fatalf("round trip changed NumVars: %d → %d", s1.NumVars(), s2.NumVars())
		}
		cnf1, cnf2 := solverCNF(s1), solverCNF(s2)
		if s1.NumVars() > 12 || len(cnf1) > 64 || len(cnf2) > 64 {
			return // too big to brute force; parse/serialize checks stand
		}
		sat1, _ := bruteForce(s1.NumVars(), cnf1)
		sat2, _ := bruteForce(s2.NumVars(), cnf2)
		if sat1 != sat2 {
			t.Fatalf("round trip changed satisfiability %v → %v\ninput %q\noutput %q",
				sat1, sat2, data, buf.String())
		}
	})
}

// decodeCNF derives a small CNF instance and assumption set from fuzz
// bytes: byte 0 picks the variable count (≤ 12), byte 1 the assumption
// count, and the rest stream literals, the high bit terminating a
// clause.
func decodeCNF(data []byte) (nVars int, clauses [][]Lit, assumptions []Lit) {
	nVars = 1
	if len(data) == 0 {
		return nVars, nil, nil
	}
	nVars = 1 + int(data[0])%12
	data = data[1:]
	litOf := func(b byte) Lit {
		v := int(b>>1) % nVars
		if b&1 == 1 {
			return Neg(v)
		}
		return Pos(v)
	}
	if len(data) > 0 {
		k := int(data[0]) % 4
		data = data[1:]
		for i := 0; i < k && len(data) > 0; i++ {
			assumptions = append(assumptions, litOf(data[0]))
			data = data[1:]
		}
	}
	var cur []Lit
	for _, b := range data {
		if b&0x80 != 0 {
			if len(cur) > 0 {
				clauses = append(clauses, cur)
				cur = nil
			}
			continue
		}
		cur = append(cur, litOf(b&0x7f))
	}
	if len(cur) > 0 {
		clauses = append(clauses, cur)
	}
	if len(clauses) > 64 {
		clauses = clauses[:64]
	}
	return nVars, clauses, assumptions
}

// checkAssuming checks one SolveAssuming result against the brute-
// force oracle — the status; on Sat, the model against the clauses and
// the assumptions; on Unsat, that the core is a subset of the
// assumptions inconsistent with the clauses — and returns whether the
// call was satisfiable.
func checkAssuming(t *testing.T, s *Solver, nVars int, clauses [][]Lit, assumptions []Lit, got Status) bool {
	t.Helper()
	if want := bruteForceAssuming(nVars, clauses, assumptions); (got == Sat) != want {
		t.Fatalf("SolveAssuming=%v, brute force sat=%v (cnf %v assume %v)",
			got, want, clauses, assumptions)
	}
	if got == Sat {
		checkModel(t, s, clauses)
		for _, a := range assumptions {
			if s.Value(a.Var()) == a.Sign() {
				t.Fatalf("model violates assumption %v (assume %v)", a, assumptions)
			}
		}
		return true
	}
	core := s.UnsatCore()
	if core == nil {
		t.Fatal("nil core after UNSAT")
	}
	inA := map[Lit]bool{}
	for _, a := range assumptions {
		inA[a] = true
	}
	for _, l := range core {
		if !inA[l] {
			t.Fatalf("core literal %v not among assumptions %v", l, assumptions)
		}
	}
	if bruteForceAssuming(nVars, clauses, core) {
		t.Fatalf("core %v is not inconsistent (cnf %v)", core, clauses)
	}
	return false
}

// FuzzSolver cross-checks the CDCL solver against the brute-force
// oracle on random ≤12-variable instances: plain solving, model
// validity, solving under assumptions with core soundness, a chain of
// assumption solves that share, extend and flip a prefix (the kept
// trail), solving with non-default restart/decay knobs, an
// incremental re-solve after blocking the first model, and a replay on
// the same solver after Reset that must match a new solver step for
// step.
func FuzzSolver(f *testing.F) {
	f.Add([]byte{3, 0, 0x02, 0x05, 0x80, 0x03, 0x04, 0x80})
	f.Add([]byte{7, 2, 0x04, 0x09, 0x10, 0x80, 0x11, 0x80})
	f.Add([]byte{11, 0, 0x00, 0x80, 0x01, 0x80})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			t.Skip()
		}
		nVars, clauses, assumptions := decodeCNF(data)
		want, _ := bruteForce(nVars, clauses)

		s := mkSolver(nVars, clauses)
		if got := s.Solve(); (got == Sat) != want {
			t.Fatalf("Solve=%v, brute force sat=%v (cnf %v)", got, want, clauses)
		} else if got == Sat {
			checkModel(t, s, clauses)
		}

		// Assumptions on a fresh solver: status matches brute force
		// with the assumptions as units, failed assumption sets yield
		// a sound core, and the solver survives for a plain re-solve.
		s2 := mkSolver(nVars, clauses)
		wantA := checkAssuming(t, s2, nVars, clauses, assumptions, s2.SolveAssuming(assumptions...))
		if !wantA {
			if got := s2.Solve(); (got == Sat) != want {
				t.Fatalf("post-core Solve=%v, brute force sat=%v", got, want)
			}
		}

		// Kept trail: a chain of calls whose assumption lists share,
		// extend and then flip a prefix — the canonicalization pattern
		// — must answer every call as a fresh solver would, although
		// each call resumes from the levels the previous one kept.
		s4 := mkSolver(nVars, clauses)
		ext := Pos(nVars - 1)
		if len(data) > 0 && data[len(data)-1]&1 == 1 {
			ext = ext.Not()
		}
		with := func(base []Lit, extra ...Lit) []Lit {
			return append(append([]Lit(nil), base...), extra...)
		}
		chain := [][]Lit{assumptions, assumptions, with(assumptions, ext), with(assumptions, ext.Not())}
		if len(assumptions) > 0 {
			flipped := with(assumptions)
			flipped[0] = flipped[0].Not()
			chain = append(chain, with(flipped, ext), flipped, assumptions)
		}
		for _, a := range chain {
			checkAssuming(t, s4, nVars, clauses, a, s4.SolveAssuming(a...))
		}
		// Then the canonicalization walk itself: probe each variable
		// false under the fixes so far and fix the answer. The fixes
		// must spell out the lex-least model brute force finds.
		if wantA {
			fixed := with(assumptions)
			for v := 0; v < nVars; v++ {
				probe := with(fixed, Neg(v))
				got := s4.SolveAssuming(probe...)
				checkAssuming(t, s4, nVars, clauses, probe, got)
				if got == Sat {
					fixed = probe
				} else {
					fixed = with(fixed, Pos(v))
				}
			}
			all := append([][]Lit(nil), clauses...)
			for _, a := range assumptions {
				all = append(all, []Lit{a})
			}
			_, least := bruteForce(nVars, all)
			for _, l := range fixed[len(assumptions):] {
				if least[l.Var()] == l.Sign() {
					t.Fatalf("probe walk fixed %v, lex-least model %v (cnf %v assume %v)",
						fixed, least, clauses, assumptions)
				}
			}
		}

		// A different restart interval must not change the answer.
		s3 := mkSolver(nVars, clauses)
		s3.RestartBase = 25
		if got := s3.Solve(); (got == Sat) != want {
			t.Fatalf("knobbed Solve=%v, brute force sat=%v", got, want)
		}

		// Incremental: block the first model, re-solve, re-check.
		if want {
			block := make([]Lit, nVars)
			for v := 0; v < nVars; v++ {
				if s.Value(v) {
					block[v] = Neg(v)
				} else {
					block[v] = Pos(v)
				}
			}
			blocked := append(append([][]Lit(nil), clauses...), block)
			wantB, _ := bruteForce(nVars, blocked)
			s.AddClause(block...)
			if got := s.Solve(); (got == Sat) != wantB {
				t.Fatalf("blocked re-solve=%v, brute force sat=%v", got, wantB)
			} else if got == Sat {
				checkModel(t, s, blocked)
			}
		}

		// Reset and replay: the solver that ran the incremental leg,
		// Reset, must replay the instance, the assumption solve and the
		// kept-trail chain exactly as a new solver does — status, model,
		// core, Stats and every other piece of search state.
		s.Reset()
		w := &twin{t: t, fresh: New(), used: s, label: "reset replay"}
		for v := 0; v < nVars; v++ {
			w.fresh.NewVar()
			w.used.NewVar()
		}
		for _, c := range clauses {
			w.addClause(c)
		}
		w.solve("solve")
		w.solve("assume", assumptions...)
		for _, a := range chain {
			w.solve("chain", a...)
		}
	})
}
