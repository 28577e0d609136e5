// Package sat implements a CDCL (conflict-driven clause learning)
// boolean satisfiability solver.
//
// The paper drives its automaton search with CBMC: the hypothesis
// "no N-state automaton exists" is compiled to a loop-free C program
// whose verification condition is a propositional formula, and a CBMC
// counterexample is exactly a satisfying assignment describing the
// automaton. This package is the self-contained substitute for that
// engine: internal/learn encodes the same hypothesis directly in CNF
// and solves it here.
//
// The solver is a conventional modern CDCL design:
//
//   - two-watched-literal unit propagation with watcher blockers,
//   - first-UIP conflict analysis with recursive clause minimisation,
//   - VSIDS variable activity with exponential decay and phase saving,
//   - Luby-sequence restarts,
//   - activity-driven learned-clause deletion,
//   - incremental use: clauses may be added between Solve calls, and
//     SolveAssuming solves under temporary assumptions while keeping
//     every learned clause for the next call; a failed assumption set
//     yields an UnsatCore, and a call that repeats a prefix of the
//     previous call's assumptions resumes from its decision levels
//     instead of re-placing them.
//
// Clause storage is a flat arena: all literals live contiguously in
// one slab, clauses are int32 offsets (crefs) into it, and watcher
// lists hold crefs plus a blocker literal. Deleting a clause only
// marks its header; a compaction pass re-packs the slab when the
// wasted share grows past half (see DESIGN.md note 17).
package sat

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Lit is a literal: a propositional variable or its negation.
// Internally a literal is 2*v for the positive and 2*v+1 for the
// negative polarity of variable v.
type Lit int32

// Pos returns the positive literal of variable v.
func Pos(v int) Lit { return Lit(2 * v) }

// Neg returns the negative literal of variable v.
func Neg(v int) Lit { return Lit(2*v + 1) }

// Var returns the literal's variable.
func (l Lit) Var() int { return int(l) >> 1 }

// Sign reports whether the literal is negated.
func (l Lit) Sign() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// String renders the literal in DIMACS style (v+1, negative for
// negated literals).
func (l Lit) String() string {
	if l.Sign() {
		return fmt.Sprintf("-%d", l.Var()+1)
	}
	return fmt.Sprintf("%d", l.Var()+1)
}

// Status is a Solve result.
type Status uint8

// Solve outcomes.
const (
	Unknown Status = iota
	Sat
	Unsat
)

// String returns SAT/UNSAT/UNKNOWN.
func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// cref is a clause reference: the slab offset of the clause header.
type cref int32

// crefUndef marks "no clause" (reason of a decision, no conflict).
const crefUndef cref = -1

// Arena clause layout, in Lit-sized words starting at the cref:
//
//	[0]          header: size<<hdrSizeShift | flags
//	[1]          float32 activity bits — learnt clauses only
//	[1|2 ...]    the literals
//
// A deleted clause keeps its header (so linear scans stay possible)
// but its words count as wasted; compaction re-packs live clauses into
// a fresh slab and rewrites every cref holder.
const (
	hdrLearnt    = 1 << 0
	hdrDeleted   = 1 << 1
	hdrSizeShift = 2
)

// arena is the flat clause store.
type arena struct {
	slab   []Lit
	wasted int // words occupied by deleted clauses
}

func (a *arena) alloc(lits []Lit, learnt bool) cref {
	c := cref(len(a.slab))
	hdr := Lit(len(lits) << hdrSizeShift)
	if learnt {
		hdr |= hdrLearnt
		a.slab = append(a.slab, hdr, Lit(math.Float32bits(1)))
	} else {
		a.slab = append(a.slab, hdr)
	}
	a.slab = append(a.slab, lits...)
	return c
}

func (a *arena) size(c cref) int    { return int(a.slab[c]) >> hdrSizeShift }
func (a *arena) learnt(c cref) bool { return a.slab[c]&hdrLearnt != 0 }

// litsOf returns the clause's literal slice, borrowed from the slab
// (mutations — watch swaps — write through).
func (a *arena) litsOf(c cref) []Lit {
	off := int(c) + 1
	if a.slab[c]&hdrLearnt != 0 {
		off++
	}
	return a.slab[off : off+a.size(c)]
}

// words returns the clause's total footprint in slab words.
func (a *arena) words(c cref) int {
	n := 1 + a.size(c)
	if a.slab[c]&hdrLearnt != 0 {
		n++
	}
	return n
}

func (a *arena) activity(c cref) float32 {
	return math.Float32frombits(uint32(a.slab[c+1]))
}

func (a *arena) setActivity(c cref, f float32) {
	a.slab[c+1] = Lit(math.Float32bits(f))
}

// del marks the clause deleted; its words become wasted.
func (a *arena) del(c cref) {
	a.wasted += a.words(c)
	a.slab[c] |= hdrDeleted
}

// watcher is one entry of a literal's watch list: the watched clause
// and a blocker — some other literal of the clause whose truth proves
// the clause satisfied without touching the clause memory at all (the
// common case in hot propagation).
type watcher struct {
	c       cref
	blocker Lit
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	ar      arena
	clauses []cref // problem clauses
	learnts []cref // learned clauses
	watches [][]watcher

	assign  []lbool
	level   []int32
	reason  []cref
	phase   []bool // saved phases
	prefPol []bool // preferred initial polarity (false by default)

	trail    []Lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	heap     varHeap

	ok bool // false once the formula is known unsat at level 0

	// assumptions of the current SolveAssuming call, placed as the
	// first decision levels of the search; between calls, those of the
	// latest call, which the next call matches to find its kept prefix.
	assumptions []Lit
	// core is the final conflict of the last failed SolveAssuming
	// call: a subset of the assumptions that is jointly inconsistent
	// with the clauses. Empty (non-nil) when the formula is unsat
	// regardless of assumptions; nil when the last solve did not end
	// in Unsat.
	core []Lit

	// stop aborts the in-progress solve with Unknown when set (see
	// Interrupt); cleared on entry to SolveAssuming.
	stop atomic.Bool

	// scratch buffers, reused across calls so the hot loops allocate
	// only when a buffer grows.
	seen       []bool
	analyzeTS  []Lit
	learntBuf  []Lit
	redStack   []Lit
	redUndo    []Lit
	addBuf     []Lit
	addMark    []int8 // 0 unseen, 1 positive seen, 2 negative seen
	actScratch []float64

	// statistics
	Stats Stats

	// MaxConflicts, when positive, aborts Solve with Unknown after
	// that many conflicts. Zero means no limit.
	MaxConflicts int64

	// RestartBase scales the Luby restart sequence: the first restart
	// fires after RestartBase conflicts. Zero means 100, the default.
	// Portfolio solving races solvers that differ in this knob.
	RestartBase int64

	// Decay is the VSIDS activity decay divisor in (0, 1); smaller
	// values focus harder on recent conflicts. Zero means 0.95.
	Decay float64
}

// Stats counts solver work, exposed for the scalability experiments.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
	Learned      int64
	Deleted      int64
	Compactions  int64 // arena re-pack passes
}

// Minus returns the component-wise difference s − o: the work done
// between two snapshots of a solver's cumulative statistics.
func (s Stats) Minus(o Stats) Stats {
	return Stats{
		Decisions:    s.Decisions - o.Decisions,
		Propagations: s.Propagations - o.Propagations,
		Conflicts:    s.Conflicts - o.Conflicts,
		Restarts:     s.Restarts - o.Restarts,
		Learned:      s.Learned - o.Learned,
		Deleted:      s.Deleted - o.Deleted,
		Compactions:  s.Compactions - o.Compactions,
	}
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{varInc: 1, ok: true}
	s.heap.s = s
	return s
}

// NumVars returns the number of variables created so far.
func (s *Solver) NumVars() int { return len(s.assign) }

// NewVar creates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assign)
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, crefUndef)
	s.phase = append(s.phase, false)
	s.prefPol = append(s.prefPol, false)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.addMark = append(s.addMark, 0)
	s.watches = append(s.watches, nil, nil)
	s.heap.insert(v)
	return v
}

// SetPreferredPolarity sets the polarity first tried when the solver
// decides on v before any phase has been saved for it. The learner
// biases transition-function variables to false so that extracted
// automata contain only witnessed transitions.
func (s *Solver) SetPreferredPolarity(v int, polarity bool) {
	s.prefPol[v] = polarity
	s.phase[v] = polarity
}

func (s *Solver) value(l Lit) lbool {
	a := s.assign[l.Var()]
	if a == lUndef {
		return lUndef
	}
	if l.Sign() == (a == lFalse) {
		return lTrue
	}
	return lFalse
}

// Value returns the model value of variable v after a Sat result. The
// model stays readable until the next AddClause or solve call. After an Unsat result caused by a failed assumption the trail
// still holds the assumption levels SolveAssuming keeps for its next
// call, so Value then reports a partial assignment, not a model.
func (s *Solver) Value(v int) bool { return s.assign[v] == lTrue }

// AddClause adds a clause over the given literals. It returns false
// when the clause makes the formula trivially unsatisfiable at the top
// level. Adding a clause after a Sat result backtracks the solver to
// decision level 0 and invalidates the model, so callers must copy any
// model values they need first.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if len(s.trailLim) != 0 {
		s.backtrack(0)
	}
	// Normalise: drop duplicate and false literals, detect
	// tautologies and satisfied clauses. Var-indexed marks replace a
	// map so the normalisation never allocates.
	norm := s.addBuf[:0]
	sat, taut := false, false
	for _, l := range lits {
		if l.Var() >= s.NumVars() || l < 0 {
			panic(fmt.Sprintf("sat: literal %d references unknown variable", l))
		}
		mark := int8(1)
		if l.Sign() {
			mark = 2
		}
		switch {
		case s.value(l) == lTrue || s.addMark[l.Var()] == 3-mark:
			sat, taut = true, true
		case s.value(l) == lFalse || s.addMark[l.Var()] == mark:
			// skip
		default:
			s.addMark[l.Var()] = mark
			norm = append(norm, l)
		}
		if taut {
			break
		}
	}
	for _, l := range norm {
		s.addMark[l.Var()] = 0
	}
	s.addBuf = norm[:0]
	if sat {
		return true
	}
	switch len(norm) {
	case 0:
		s.ok = false
		return false
	case 1:
		if !s.enqueue(norm[0], crefUndef) {
			s.ok = false
			return false
		}
		if s.propagate() != crefUndef {
			s.ok = false
			return false
		}
		return true
	default:
		c := s.ar.alloc(norm, false)
		s.clauses = append(s.clauses, c)
		s.attach(c)
		return true
	}
}

// attach installs the clause's two watchers, each blocking on the
// other watched literal.
func (s *Solver) attach(c cref) {
	lits := s.ar.litsOf(c)
	s.watches[lits[0].Not()] = append(s.watches[lits[0].Not()], watcher{c: c, blocker: lits[1]})
	s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{c: c, blocker: lits[0]})
}

// removeClause removes c's two watchers and arena-deletes it.
func (s *Solver) removeClause(c cref) {
	lits := s.ar.litsOf(c)
	for _, w := range [2]Lit{lits[0].Not(), lits[1].Not()} {
		list := s.watches[w]
		for i := range list {
			if list[i].c == c {
				list[i] = list[len(list)-1]
				s.watches[w] = list[:len(list)-1]
				break
			}
		}
	}
	s.ar.del(c)
}

// enqueue assigns literal l with the given reason clause. It returns
// false when l is already false.
func (s *Solver) enqueue(l Lit, from cref) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	if l.Sign() {
		s.assign[v] = lFalse
	} else {
		s.assign[v] = lTrue
	}
	s.level[v] = int32(len(s.trailLim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation; it returns a conflicting clause
// or crefUndef. Watch lists are compacted in place; a watcher whose
// blocker is already true is skipped without loading the clause.
func (s *Solver) propagate() cref {
	for s.qhead < len(s.trail) {
		l := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++
		ws := s.watches[l]
		j := 0
		confl := crefUndef
	outer:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.value(w.blocker) == lTrue {
				ws[j] = w
				j++
				continue
			}
			lits := s.ar.litsOf(w.c)
			// Ensure the false literal is lits[1].
			if lits[0] == l.Not() {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			// Satisfied by the other watch?
			if first != w.blocker && s.value(first) == lTrue {
				ws[j] = watcher{c: w.c, blocker: first}
				j++
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					nw := lits[1].Not()
					s.watches[nw] = append(s.watches[nw], watcher{c: w.c, blocker: first})
					continue outer
				}
			}
			// Unit or conflicting.
			ws[j] = watcher{c: w.c, blocker: first}
			j++
			if !s.enqueue(first, w.c) {
				confl = w.c
				// Conflict: keep the remaining watchers.
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				s.qhead = len(s.trail)
			}
		}
		s.watches[l] = ws[:j]
		if confl != crefUndef {
			return confl
		}
	}
	return crefUndef
}

// analyze performs first-UIP conflict analysis, returning the learnt
// clause (asserting literal first) and the backtrack level. The
// returned slice is scratch, valid until the next call.
func (s *Solver) analyze(confl cref) ([]Lit, int) {
	learnt := append(s.learntBuf[:0], 0) // slot for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	curLevel := int32(len(s.trailLim))
	s.analyzeTS = s.analyzeTS[:0]

	for {
		s.bumpClause(confl)
		clits := s.ar.litsOf(confl)
		start := 0
		if p != -1 {
			start = 1 // skip the asserting literal slot of the reason
		}
		for _, q := range clits[start:] {
			if p != -1 && q == p {
				continue
			}
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.analyzeTS = append(s.analyzeTS, q)
			s.bumpVar(v)
			if s.level[v] == curLevel {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find the next seen literal on the trail.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[v]
	}
	learnt[0] = p.Not()

	// Clause minimisation: remove literals implied by the rest.
	minimised := learnt[:1]
	for _, q := range learnt[1:] {
		if !s.redundant(q) {
			minimised = append(minimised, q)
		}
	}
	learnt = minimised

	// Compute backtrack level: the highest level among the
	// non-asserting literals.
	btLevel := 0
	for i := 1; i < len(learnt); i++ {
		if lv := int(s.level[learnt[i].Var()]); lv > btLevel {
			btLevel = lv
			// Move the max-level literal to slot 1 so it is
			// watched (needed for correct propagation after
			// backjumping).
			learnt[1], learnt[i] = learnt[i], learnt[1]
		}
	}

	// Clear seen flags.
	for _, q := range s.analyzeTS {
		s.seen[q.Var()] = false
	}
	s.learntBuf = learnt
	return learnt, btLevel
}

// redundant reports whether literal q is implied by the other literals
// of the learnt clause (its reason chain stays within seen literals).
func (s *Solver) redundant(q Lit) bool {
	if s.reason[q.Var()] == crefUndef {
		return false
	}
	stack := append(s.redStack[:0], q)
	undo := s.redUndo[:0]
	defer func() {
		s.redStack = stack[:0]
		s.redUndo = undo[:0]
	}()
	for len(stack) > 0 {
		l := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c := s.reason[l.Var()]
		if c == crefUndef {
			// Decision reached: q is not redundant; roll back
			// marks made during this check.
			for _, u := range undo {
				s.seen[u.Var()] = false
			}
			return false
		}
		for _, x := range s.ar.litsOf(c)[1:] {
			v := x.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			undo = append(undo, x)
			s.analyzeTS = append(s.analyzeTS, x)
			stack = append(stack, x)
		}
	}
	return true
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.heap.update(v)
}

func (s *Solver) bumpClause(c cref) {
	if s.ar.learnt(c) {
		s.ar.setActivity(c, s.ar.activity(c)+1)
	}
}

func (s *Solver) decayActivities() {
	d := s.Decay
	if d == 0 {
		d = 0.95
	}
	s.varInc /= d
}

// BumpActivity raises variable v's activity by the given amount.
// Seeding activities before the first solve changes the initial
// branching order — one of the portfolio's diversification knobs.
func (s *Solver) BumpActivity(v int, amount float64) {
	if amount <= 0 {
		return
	}
	s.activity[v] += amount
	s.heap.update(v)
}

// Interrupt makes the in-progress (or next) solve return Unknown at
// the next conflict or decision. It is the only Solver method safe to
// call from another goroutine; a portfolio uses it to stop losing
// solvers promptly. The flag clears when a new solve starts.
func (s *Solver) Interrupt() { s.stop.Store(true) }

// backtrack undoes assignments above the given level.
func (s *Solver) backtrack(level int) {
	if len(s.trailLim) <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.phase[v] = s.assign[v] == lTrue
		s.assign[v] = lUndef
		s.reason[v] = crefUndef
		s.heap.insert(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = bound
}

// pickBranchLit chooses the unassigned variable with the highest
// activity, using the saved phase.
func (s *Solver) pickBranchLit() Lit {
	for {
		v, ok := s.heap.removeMax()
		if !ok {
			return -1
		}
		if s.assign[v] == lUndef {
			if s.phase[v] {
				return Pos(v)
			}
			return Neg(v)
		}
	}
}

// luby computes the Luby restart sequence element for index i
// (1-based): 1, 1, 2, 1, 1, 2, 4, …
func luby(i int64) int64 {
	x := i - 1
	// Find the finite subsequence containing x and its size.
	var size, seq int64 = 1, 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) >> 1
		seq--
		x %= size
	}
	return int64(1) << seq
}

// locked reports whether c is the reason of a current assignment (its
// asserting literal is lits[0]; propagation never swaps it away while
// the assignment stands).
func (s *Solver) locked(c cref) bool {
	l := s.ar.litsOf(c)[0]
	return s.value(l) == lTrue && s.reason[l.Var()] == c
}

// reduceDB removes the less active half of the learned clauses,
// keeping reasons of current assignments.
func (s *Solver) reduceDB() {
	if len(s.learnts) < 4 {
		return
	}
	// Partial selection: simple threshold at median activity.
	if cap(s.actScratch) < len(s.learnts) {
		s.actScratch = make([]float64, len(s.learnts))
	}
	acts := s.actScratch[:len(s.learnts)]
	for i, c := range s.learnts {
		acts[i] = float64(s.ar.activity(c))
	}
	med := quickMedian(acts)
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if float64(s.ar.activity(c)) > med || s.ar.size(c) <= 2 || s.locked(c) {
			kept = append(kept, c)
			continue
		}
		s.removeClause(c)
		s.Stats.Deleted++
	}
	s.learnts = kept
	s.maybeCompact()
}

func quickMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	// Selection by repeated partition (average linear time).
	k := len(xs) / 2
	lo, hi := 0, len(xs)-1
	for lo < hi {
		pivot := xs[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return xs[k]
}

// maybeCompact re-packs the arena when deleted clauses waste more
// than half of it. Compaction allocates a fresh
// slab sized to the live data, relocates problem clauses then learnts
// in list order (so relocation is deterministic), and rewrites every
// cref holder: the clause lists, the watcher lists, and the reasons of
// current assignments.
func (s *Solver) maybeCompact() {
	if s.ar.wasted < 1024 || 2*s.ar.wasted <= len(s.ar.slab) {
		return
	}
	s.Stats.Compactions++
	old := s.ar
	s.ar = arena{slab: make([]Lit, 0, len(old.slab)-old.wasted)}
	remap := make(map[cref]cref, len(s.clauses)+len(s.learnts))
	reloc := func(list []cref) {
		for i, c := range list {
			nc := s.ar.alloc(old.litsOf(c), old.learnt(c))
			if old.learnt(c) {
				s.ar.setActivity(nc, old.activity(c))
			}
			remap[c] = nc
			list[i] = nc
		}
	}
	reloc(s.clauses)
	reloc(s.learnts)
	for i := range s.watches {
		for j := range s.watches[i] {
			s.watches[i][j].c = remap[s.watches[i][j].c]
		}
	}
	// reduceDB never deletes a reason of a current assignment
	// (locked), so every reason on the trail has been relocated.
	for _, l := range s.trail {
		v := l.Var()
		if r := s.reason[v]; r != crefUndef {
			s.reason[v] = remap[r]
		}
	}
}

// Solve searches for a satisfying assignment of all added clauses. It
// may be called repeatedly, with clauses added in between; learned
// clauses persist across calls.
func (s *Solver) Solve() Status { return s.SolveAssuming() }

// SolveAssuming solves the added clauses under the given temporary
// assumptions, placed as the first decision levels of the search. The
// assumptions hold for this call only; clauses learned during the
// search mention none of them and persist for the next call, which is
// what makes repeated solve/block/solve loops cheap. An Unsat result
// caused by the assumptions (rather than the clauses alone) leaves the
// solver reusable — ok stays true — and records the subset of
// assumptions responsible, available from UnsatCore.
//
// Kept trail: a Sat result, and an Unsat result caused by a failed
// assumption, leave the assumption levels on the trail. The next call
// backtracks only to the longest prefix of its own assumptions whose
// levels are still there (the previous call's assumptions, literal for
// literal) and places the rest, so a sequence of probes that share and
// extend one prefix — canonical model extraction in internal/learn —
// propagates that prefix once. The kept levels are exactly the state a
// backjump to that level would leave: fully propagated under the
// current clauses. AddClause, an Unknown result and every restart
// drop back to level 0, so no kept level outlives a change to the
// clause set.
func (s *Solver) SolveAssuming(assumptions ...Lit) Status {
	s.stop.Store(false)
	s.core = nil
	if !s.ok {
		s.core = []Lit{}
		return Unsat
	}
	// Levels 1..len(s.assumptions) of a non-empty trail hold the
	// previous call's assumptions in order; free decisions sit above.
	keep := 0
	for keep < len(s.trailLim) && keep < len(s.assumptions) && keep < len(assumptions) &&
		s.assumptions[keep] == assumptions[keep] {
		keep++
	}
	s.backtrack(keep)
	if keep == 0 {
		if c := s.propagate(); c != crefUndef {
			s.ok = false
			s.core = []Lit{}
			return Unsat
		}
	}
	s.assumptions = append(s.assumptions[:0], assumptions...)

	base := s.RestartBase
	if base <= 0 {
		base = 100
	}
	var restarts int64
	conflictsAtStart := s.Stats.Conflicts
	maxLearnts := int64(len(s.clauses)/3 + 100)
	for {
		restarts++
		budget := base * luby(restarts)
		st := s.search(budget, &maxLearnts)
		if st != Unknown {
			// On Sat the trail is left intact so the model stays
			// readable; AddClause backtracks it to level 0, the next
			// solve to its kept prefix.
			return st
		}
		if s.stop.Load() {
			s.backtrack(0)
			return Unknown
		}
		s.Stats.Restarts++
		if s.MaxConflicts > 0 && s.Stats.Conflicts-conflictsAtStart >= s.MaxConflicts {
			s.backtrack(0)
			return Unknown
		}
	}
}

// UnsatCore returns the final conflict of the last Unsat result: a
// subset of the assumptions passed to SolveAssuming that is jointly
// inconsistent with the clauses. It is empty but non-nil when the
// clauses are unsatisfiable regardless of the assumptions, and nil
// when the last solve did not return Unsat. The slice is only valid
// until the next solve.
func (s *Solver) UnsatCore() []Lit { return s.core }

// search runs CDCL until a result, a conflict budget exhaustion
// (returns Unknown, triggering a restart), or an interrupt. Pending
// assumptions are installed as decision levels before any free
// decision; an assumption found false ends the search with Unsat and
// a final conflict, without condemning the clause set.
func (s *Solver) search(budget int64, maxLearnts *int64) Status {
	var conflicts int64
	for {
		if s.stop.Load() {
			s.backtrack(0)
			return Unknown
		}
		confl := s.propagate()
		if confl != crefUndef {
			s.Stats.Conflicts++
			conflicts++
			if len(s.trailLim) == 0 {
				s.ok = false
				s.core = []Lit{}
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			s.backtrack(btLevel)
			if len(learnt) == 1 {
				if !s.enqueue(learnt[0], crefUndef) {
					s.ok = false
					s.core = []Lit{}
					return Unsat
				}
			} else {
				c := s.ar.alloc(learnt, true)
				s.learnts = append(s.learnts, c)
				s.Stats.Learned++
				s.attach(c)
				if !s.enqueue(learnt[0], c) {
					s.ok = false
					s.core = []Lit{}
					return Unsat
				}
			}
			s.decayActivities()
			continue
		}
		if conflicts >= budget {
			s.backtrack(0)
			return Unknown
		}
		if int64(len(s.learnts)) > *maxLearnts {
			s.reduceDB()
			*maxLearnts = *maxLearnts + *maxLearnts/10
		}
		// Install pending assumptions as the next decision levels.
		// A backjump may strip assumption levels, so this re-walks
		// from the current depth every time.
		for placed := false; len(s.trailLim) < len(s.assumptions); {
			p := s.assumptions[len(s.trailLim)]
			switch s.value(p) {
			case lFalse:
				// The placed levels stay on the trail for the next
				// call (see SolveAssuming).
				s.analyzeFinal(p)
				return Unsat
			case lTrue:
				// Already implied: open an empty level so the
				// level index keeps tracking the assumption
				// index.
				s.trailLim = append(s.trailLim, len(s.trail))
			default:
				s.trailLim = append(s.trailLim, len(s.trail))
				s.enqueue(p, crefUndef)
				placed = true
			}
			if placed {
				break // propagate before the next assumption
			}
		}
		if len(s.trail) > s.qhead {
			continue // propagate the assumption just placed
		}
		l := s.pickBranchLit()
		if l == -1 {
			return Sat // all variables assigned
		}
		s.Stats.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(l, crefUndef)
	}
}

// analyzeFinal computes the final conflict after assumption p was
// found false: the subset of assumptions whose propagation forced ¬p,
// plus p itself. It walks the trail top-down from the first decision
// level, expanding marked implied literals through their reasons and
// collecting marked assumption decisions (the only reason-free
// assignments above level 0 while assumptions are being placed).
func (s *Solver) analyzeFinal(p Lit) {
	s.core = []Lit{p}
	if s.level[p.Var()] == 0 || len(s.trailLim) == 0 {
		return
	}
	s.seen[p.Var()] = true
	for i := len(s.trail) - 1; i >= s.trailLim[0]; i-- {
		v := s.trail[i].Var()
		if !s.seen[v] {
			continue
		}
		if r := s.reason[v]; r == crefUndef {
			s.core = append(s.core, s.trail[i])
		} else {
			for _, q := range s.ar.litsOf(r)[1:] {
				if s.level[q.Var()] > 0 {
					s.seen[q.Var()] = true
				}
			}
		}
		s.seen[v] = false
	}
	s.seen[p.Var()] = false
}

// varHeap is a max-heap of variables ordered by activity.
type varHeap struct {
	s       *Solver
	heap    []int
	indices []int // var → heap position, -1 when absent
}

func (h *varHeap) less(a, b int) bool { return h.s.activity[a] > h.s.activity[b] }

func (h *varHeap) insert(v int) {
	for len(h.indices) <= v {
		h.indices = append(h.indices, -1)
	}
	if h.indices[v] >= 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.indices[v] = len(h.heap) - 1
	h.up(len(h.heap) - 1)
}

func (h *varHeap) update(v int) {
	if len(h.indices) > v && h.indices[v] >= 0 {
		h.up(h.indices[v])
	}
}

func (h *varHeap) removeMax() (int, bool) {
	if len(h.heap) == 0 {
		return 0, false
	}
	v := h.heap[0]
	last := h.heap[len(h.heap)-1]
	h.heap = h.heap[:len(h.heap)-1]
	h.indices[v] = -1
	if len(h.heap) > 0 {
		h.heap[0] = last
		h.indices[last] = 0
		h.down(0)
	}
	return v, true
}

func (h *varHeap) up(i int) {
	v := h.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(v, h.heap[p]) {
			break
		}
		h.heap[i] = h.heap[p]
		h.indices[h.heap[p]] = i
		i = p
	}
	h.heap[i] = v
	h.indices[v] = i
}

func (h *varHeap) down(i int) {
	v := h.heap[i]
	for {
		c := 2*i + 1
		if c >= len(h.heap) {
			break
		}
		if c+1 < len(h.heap) && h.less(h.heap[c+1], h.heap[c]) {
			c++
		}
		if !h.less(h.heap[c], v) {
			break
		}
		h.heap[i] = h.heap[c]
		h.indices[h.heap[c]] = i
		i = c
	}
	h.heap[i] = v
	h.indices[v] = i
}
