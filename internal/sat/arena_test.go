package sat

import (
	"math/rand"
	"testing"
)

// randomInstance generates a random clause set with mixed widths.
func randomInstance(r *rand.Rand, nVars, nClauses int) [][]Lit {
	clauses := make([][]Lit, nClauses)
	for i := range clauses {
		w := 1 + r.Intn(5)
		c := make([]Lit, w)
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
	return clauses
}

// TestArenaCompaction drives the clause arena past its waste threshold
// and checks that compaction preserves the clause set and solvability.
func TestArenaCompaction(t *testing.T) {
	const nVars = 50
	s := New()
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	r := rand.New(rand.NewSource(3))
	var clauses [][]Lit
	for i := 0; i < 800; i++ {
		c := []Lit{Pos(r.Intn(nVars)), Neg(r.Intn(nVars)), Pos(r.Intn(nVars))}
		clauses = append(clauses, c)
		s.AddClause(c...)
	}
	before := solverCNF(s)
	// Delete two thirds of the stored clauses directly (white box).
	kept := s.clauses[:0]
	var keptCNF [][]Lit
	for i, c := range s.clauses {
		if i%3 != 0 {
			s.removeClause(c)
			continue
		}
		kept = append(kept, c)
		keptCNF = append(keptCNF, append([]Lit(nil), s.ar.litsOf(c)...))
	}
	s.clauses = kept
	s.maybeCompact()
	if s.Stats.Compactions == 0 {
		t.Fatalf("compaction did not trigger (wasted %d, slab %d)", s.ar.wasted, len(s.ar.slab))
	}
	if s.ar.wasted != 0 {
		t.Errorf("wasted = %d after compaction", s.ar.wasted)
	}
	for i, c := range s.clauses {
		lits := s.ar.litsOf(c)
		if len(lits) != len(keptCNF[i]) {
			t.Fatalf("clause %d changed length after compaction", i)
		}
		for j := range lits {
			if lits[j] != keptCNF[i][j] {
				t.Fatalf("clause %d literal %d changed: %v vs %v", i, j, lits[j], keptCNF[i][j])
			}
		}
	}
	if st := s.Solve(); st != Sat && st != Unsat {
		t.Fatalf("post-compaction solve = %v", st)
	}
	if st := s.Solve(); st == Sat {
		checkModel(t, s, keptCNF)
	}
	_ = before
}

// TestSolveAllocsSteadyState is the allocation audit guard: once the
// solver's scratch buffers have warmed up, a re-solve of an unchanged
// satisfiable instance (phase saving walks straight back to the model,
// so no conflicts occur) must not allocate on the hot paths.
func TestSolveAllocsSteadyState(t *testing.T) {
	nVars := 40
	var s *Solver
	for seed := int64(0); ; seed++ {
		if seed == 64 {
			t.Fatal("no satisfiable random instance in 64 seeds")
		}
		r := rand.New(rand.NewSource(seed))
		s = mkSolver(nVars, randomInstance(r, nVars, 80))
		if s.Solve() == Sat {
			break
		}
	}
	s.Solve() // warm every buffer at its final size
	allocs := testing.AllocsPerRun(50, func() {
		if s.Solve() != Sat {
			t.Fatal("re-solve flipped status")
		}
	})
	// Propagation, decisions, trail and watch updates must all reuse
	// storage; the only tolerated allocations are incidental (e.g. a
	// rare heap growth), hence a small bound rather than exactly 0.
	if allocs > 2 {
		t.Errorf("steady-state Solve allocates %.1f times per call", allocs)
	}
}

// BenchmarkSolveConflictRate measures raw CDCL throughput — conflicts
// per second on PHP(8,7), every solve an identical full UNSAT proof —
// the number BENCH_solve.json pins.
func BenchmarkSolveConflictRate(b *testing.B) {
	nv, clauses := pigeonhole(8, 7)
	var conflicts int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := mkSolver(nv, clauses)
		if s.Solve() != Unsat {
			b.Fatal("PHP(8,7) not UNSAT")
		}
		conflicts += s.Stats.Conflicts
	}
	b.ReportMetric(float64(conflicts)/b.Elapsed().Seconds(), "conflicts/s")
}
