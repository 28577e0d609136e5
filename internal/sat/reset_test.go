package sat

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// mixedCNF returns nClauses random clauses over distinct variables,
// mostly of width 3 with some of widths 2, 4 and 5. Near four clauses
// per variable that is a mix of satisfiable and unsatisfiable
// instances that take real conflicts to decide.
func mixedCNF(r *rand.Rand, nVars, nClauses int) [][]Lit {
	clauses := make([][]Lit, nClauses)
	for i := range clauses {
		w := 3
		switch {
		case r.Intn(40) == 0:
			w = 2
		case r.Intn(10) == 0:
			w = 4 + r.Intn(2)
		}
		c := make([]Lit, 0, w)
		for _, v := range r.Perm(nVars)[:w] {
			c = append(c, Pos(v))
			if r.Intn(2) == 0 {
				c[len(c)-1] = Neg(v)
			}
		}
		clauses[i] = c
	}
	return clauses
}

func randomLit(r *rand.Rand, nVars int) Lit {
	if r.Intn(2) == 0 {
		return Pos(r.Intn(nVars))
	}
	return Neg(r.Intn(nVars))
}

func randomAssumptions(r *rand.Rand, nVars, max int) []Lit {
	a := make([]Lit, 1+r.Intn(max))
	for i := range a {
		a[i] = randomLit(r, nVars)
	}
	return a
}

// solverState is every search-relevant field of a solver, copied so
// that an empty slice and a nil one compare equal. Buffer capacities
// and the spare slab are left out: Reset keeps them on purpose.
type solverState struct {
	Slab        []Lit
	Wasted      int
	Clauses     []cref
	Learnts     []cref
	Watches     [][]watcher
	Assign      []lbool
	Level       []int32
	Reason      []cref
	Phase       []bool
	PrefPol     []bool
	Trail       []Lit
	TrailLim    []int
	Qhead       int
	Activity    []float64
	VarInc      float64
	Heap        []int
	HeapIndices []int
	OK          bool
	Assumptions []Lit
	CoreNil     bool
	Core        []Lit
	Seen        []bool
	AddMark     []int8
	Stats       Stats
	MaxConf     int64
	RestartBase int64
}

func stateOf(s *Solver) solverState {
	watches := make([][]watcher, len(s.watches))
	for i, w := range s.watches {
		watches[i] = append([]watcher{}, w...)
	}
	return solverState{
		Slab:        append([]Lit{}, s.ar.slab...),
		Wasted:      s.ar.wasted,
		Clauses:     append([]cref{}, s.clauses...),
		Learnts:     append([]cref{}, s.learnts...),
		Watches:     watches,
		Assign:      append([]lbool{}, s.assign...),
		Level:       append([]int32{}, s.level...),
		Reason:      append([]cref{}, s.reason...),
		Phase:       append([]bool{}, s.phase...),
		PrefPol:     append([]bool{}, s.prefPol...),
		Trail:       append([]Lit{}, s.trail...),
		TrailLim:    append([]int{}, s.trailLim...),
		Qhead:       s.qhead,
		Activity:    append([]float64{}, s.activity...),
		VarInc:      s.varInc,
		Heap:        append([]int{}, s.heap.heap...),
		HeapIndices: append([]int{}, s.heap.indices...),
		OK:          s.ok,
		Assumptions: append([]Lit{}, s.assumptions...),
		CoreNil:     s.core == nil,
		Core:        append([]Lit{}, s.core...),
		Seen:        append([]bool{}, s.seen...),
		AddMark:     append([]int8{}, s.addMark...),
		Stats:       s.Stats,
		MaxConf:     s.MaxConflicts,
		RestartBase: s.RestartBase,
	}
}

// twin drives a fresh solver and a Reset one through the same calls
// and fails at the first call after which they differ in status,
// model, core, Stats or any other search state.
type twin struct {
	t           *testing.T
	fresh, used *Solver
	label       string
}

func (w *twin) same(step string, a, b Status) {
	w.t.Helper()
	if a != b {
		w.t.Fatalf("%s %s: status %v after Reset, %v on a new solver", w.label, step, b, a)
	}
	if a == Sat {
		for v := 0; v < w.fresh.NumVars(); v++ {
			if w.fresh.Value(v) != w.used.Value(v) {
				w.t.Fatalf("%s %s: models differ at variable %d", w.label, step, v)
			}
		}
	}
	if fc, uc := w.fresh.UnsatCore(), w.used.UnsatCore(); (fc == nil) != (uc == nil) || !reflect.DeepEqual(append([]Lit{}, fc...), append([]Lit{}, uc...)) {
		w.t.Fatalf("%s %s: core %v after Reset, %v on a new solver", w.label, step, uc, fc)
	}
	if w.fresh.Stats != w.used.Stats {
		w.t.Fatalf("%s %s: stats %+v after Reset, %+v on a new solver", w.label, step, w.used.Stats, w.fresh.Stats)
	}
	if fs, us := stateOf(w.fresh), stateOf(w.used); !reflect.DeepEqual(fs, us) {
		w.t.Fatalf("%s %s: solver state after Reset differs from a new solver's:\nreset %+v\nnew   %+v", w.label, step, us, fs)
	}
}

func (w *twin) solve(step string, assumptions ...Lit) {
	w.t.Helper()
	w.same(step, w.fresh.SolveAssuming(assumptions...), w.used.SolveAssuming(assumptions...))
}

func (w *twin) addClause(c []Lit) {
	w.t.Helper()
	if a, b := w.fresh.AddClause(c...), w.used.AddClause(c...); a != b {
		w.t.Fatalf("%s: AddClause(%v) = %v after Reset, %v on a new solver", w.label, c, b, a)
	}
}

// dirty leaves as much state behind in s as one instance can: grown
// buffers, learned and compacted clauses, saved phases and activities,
// a raised varInc, kept assumption levels, a core and non-default
// knobs.
func dirty(r *rand.Rand, s *Solver) {
	nVars := 120 + r.Intn(40)
	for i := 0; i < nVars; i++ {
		s.NewVar()
		if r.Intn(3) == 0 {
			s.SetPreferredPolarity(i, true)
		}
	}
	for _, c := range mixedCNF(r, nVars, nVars*41/10+r.Intn(nVars/4)) {
		s.AddClause(c...)
	}
	s.RestartBase = 7
	s.Solve()
	s.SolveAssuming(randomAssumptions(r, nVars, 6)...)
	s.MaxConflicts = 3
	s.SolveAssuming(randomAssumptions(r, nVars, 6)...)
}

// TestResetMatchesNew: a solver that first solved a larger, different
// instance and was then Reset must answer every later call — plain and
// assumption solves, a kept-trail chain, incremental clauses, a
// conflict-limited Unknown, a failed assumption set's core — exactly as
// a new solver does, with the same Stats and the same internal state
// after every call.
func TestResetMatchesNew(t *testing.T) {
	conflicts, compacted := 0, 0
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		used := New()
		dirty(r, used)
		if seed%2 == 1 {
			used.Reset()
			dirty(r, used) // a second round on already-recycled buffers
		}
		if used.Stats.Compactions > 0 {
			compacted++
		}
		used.Reset()
		w := &twin{t: t, fresh: New(), used: used, label: fmt.Sprintf("seed %d", seed)}
		w.same("reset", Unknown, Unknown)

		nVars := 30 + r.Intn(30)
		for i := 0; i < nVars; i++ {
			if w.fresh.NewVar() != w.used.NewVar() {
				t.Fatalf("%s: variable numbering differs", w.label)
			}
			if r.Intn(4) == 0 {
				w.fresh.SetPreferredPolarity(i, true)
				w.used.SetPreferredPolarity(i, true)
			}
		}
		cnf := mixedCNF(r, nVars, nVars*41/10+r.Intn(nVars/4))
		half := len(cnf) / 2
		for _, c := range cnf[:half] {
			w.addClause(c)
		}
		w.solve("solve")
		a := randomAssumptions(r, nVars, 4)
		w.solve("assume", a...)
		w.solve("kept prefix", append(append([]Lit{}, a...), randomLit(r, nVars))...)
		for _, c := range cnf[half:] {
			w.addClause(c)
		}
		w.solve("incremental")
		limit := int64(1 + r.Intn(20))
		w.fresh.MaxConflicts, w.used.MaxConflicts = limit, limit
		w.solve("conflict limit")
		w.fresh.MaxConflicts, w.used.MaxConflicts = 0, 0
		w.solve("failed assumptions", randomAssumptions(r, nVars, 6)...)
		w.solve("after core")
		conflicts += int(w.fresh.Stats.Conflicts)
	}
	if conflicts < 1000 || compacted == 0 {
		t.Fatalf("%d conflicts over the corpus, %d solvers compacted before Reset: instances too easy", conflicts, compacted)
	}
	t.Logf("%d conflicts, %d of 60 solvers compacted before Reset", conflicts, compacted)
}

// TestResetRebuildAllocs is the recycling guard: once a solver has
// held a larger instance, Reset and rebuilding and solving a smaller
// one reuses the buffers that instance grew.
func TestResetRebuildAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	big, small := mixedCNF(r, 80, 340), mixedCNF(r, 40, 170)
	s := New()
	build := func(nVars int, cnf [][]Lit) Status {
		s.Reset()
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		for _, c := range cnf {
			s.AddClause(c...)
		}
		return s.Solve()
	}
	build(80, big)
	build(40, small)
	if s.Stats.Conflicts == 0 {
		t.Fatal("small instance solved without conflicts; pick another seed")
	}
	allocs := testing.AllocsPerRun(20, func() { build(40, small) })
	if allocs > 2 {
		t.Errorf("Reset, rebuild and solve allocate %.1f times per call", allocs)
	}
}

// TestCompactionAllocsWarm: once both slabs have held the live
// clauses, compaction re-packs into the spare one and forwards crefs
// in place, so a round of adding, deleting and compacting allocates
// nothing.
func TestCompactionAllocsWarm(t *testing.T) {
	const nVars = 60
	s := New()
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	r := rand.New(rand.NewSource(4))
	clause := func() []Lit {
		a := r.Intn(nVars)
		b := (a + 1 + r.Intn(nVars-1)) % nVars
		c := (b + 1 + r.Intn(nVars-2)) % nVars
		if c == a {
			c = (c + 1) % nVars
		}
		return []Lit{Pos(a), Neg(b), Pos(c)}
	}
	keep := make([][]Lit, 100)
	for i := range keep {
		keep[i] = clause()
		s.AddClause(keep[i]...)
	}
	churn := make([][]Lit, 900)
	for i := range churn {
		churn[i] = clause()
	}
	round := func() {
		for _, c := range churn {
			s.AddClause(c...)
		}
		for _, c := range s.clauses[len(keep):] {
			s.removeClause(c)
		}
		s.clauses = s.clauses[:len(keep)]
		s.maybeCompact()
	}
	round()
	round()
	before := s.Stats.Compactions
	allocs := testing.AllocsPerRun(10, round)
	if got := s.Stats.Compactions - before; got != 11 {
		t.Fatalf("%d compactions in 11 rounds", got)
	}
	if allocs != 0 {
		t.Errorf("warm compaction round allocates %.1f times", allocs)
	}
	for i, c := range s.clauses {
		if !reflect.DeepEqual(s.ar.litsOf(c), keep[i]) {
			t.Fatalf("clause %d is %v after compaction, want %v", i, s.ar.litsOf(c), keep[i])
		}
	}
	if s.Solve() == Sat {
		checkModel(t, s, keep)
	}
}

// TestFailedAssumptionAllocs: a failed assumption solve writes its core
// into the solver's reused core buffer, so repeating one allocates
// nothing.
func TestFailedAssumptionAllocs(t *testing.T) {
	s := New()
	for i := 0; i < 4; i++ {
		s.NewVar()
	}
	s.AddClause(Neg(0), Pos(1))
	s.AddClause(Neg(1), Pos(2))
	assume := []Lit{Pos(3), Pos(0), Neg(2)}
	if s.SolveAssuming(assume...) != Unsat || len(s.UnsatCore()) != 2 {
		t.Fatalf("core %v, want the two chained assumptions", s.UnsatCore())
	}
	allocs := testing.AllocsPerRun(50, func() {
		if s.SolveAssuming(assume...) != Unsat {
			t.Fatal("repeated failed solve flipped status")
		}
	})
	if allocs != 0 {
		t.Errorf("failed assumption solve allocates %.1f times", allocs)
	}
}
