// Portfolio model construction: race several solver configurations on
// the same automaton-existence question and decide each solve round
// deterministically, mirroring the replay discipline of
// internal/predicate/parallel.go (speculate in parallel, decide by a
// rule that does not depend on scheduling).
//
// Every member solves a formula equisatisfiable with the canonical
// n-state encoding, so the Sat/Unsat status of a round is a fact about
// the input, not about timing. The decision rule exploits that:
//
//   - An Unsat result from any member decides the round — all members
//     must agree, so it does not matter which one finished first.
//   - A Sat decision is only ever taken from member 0, the canonical
//     configuration, whose solver runs the exact serial computation.
//     Variant models are discarded, so the extracted automaton — and
//     with it every refinement, every blocking clause, and the final
//     Result — is identical for any worker count, including 1 (where
//     the variants never run at all).
//
// Member 0 is interrupted only when a variant proves Unsat, which ends
// the round with the same status member 0 would eventually have
// produced; its solver is then discarded with the rest of the level.
// Effort statistics (conflicts, decisions, solver calls) do depend on
// scheduling: a variant may win an UNSAT round early, and the
// speculative member may or may not finish in time for its result to
// skip a state count. The semantic fields of Result never do.
//
// The speculative member solves with capacity n+1 under the chain
// restriction (see encoding.assumptions). When a round is UNSAT it is
// the natural warm start for the next level: promote drops the
// restriction and keeps the learned clauses. When its own result is
// Unsat with an empty core, the clauses alone are unsatisfiable — no
// (n+1)-state automaton exists either — and the search may skip
// straight to n+2.
package learn

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/automaton"
	"repro/internal/sat"
)

// solverConfig is one portfolio member's diversification knobs.
type solverConfig struct {
	name        string
	restartBase int64
	decay       float64
	preferTrue  bool // flip transition-variable polarity preference
	speculative bool // capacity n+1 under the chain restriction
	warm        bool // promoted encoding carried over from the previous level
}

// portfolioConfigs is the fixed member table, in priority order.
// Member 0 must stay the canonical (all-defaults) configuration: the
// determinism rule takes Sat models only from it.
var portfolioConfigs = []solverConfig{
	{name: "canonical"},
	{name: "speculate-n+1", speculative: true},
	{name: "restart-fast", restartBase: 25},
	{name: "decay-hard", decay: 0.85, preferTrue: true},
}

// member is one live solver configuration.
type member struct {
	cfg  solverConfig
	enc  *encoding
	last sat.Status // result of the latest round; Unknown when unrun
	prev sat.Stats  // solver stats already accumulated upstream
}

// portfolio races K solver configurations over the same level-n
// question. A portfolio with a single member degenerates to the serial
// path, solving unbounded on the caller's goroutine.
type portfolio struct {
	members []*member
	workers int
	stop    atomic.Bool

	// Telemetry for the latest round (written by solve, read by the
	// caller between rounds): the member whose verdict decided it, and
	// the speculative member's UNSAT-core size (−1 when no core was
	// produced). Like the effort statistics, winner is
	// scheduling-dependent on UNSAT rounds; the round's status is not.
	winner   string
	specCore int
}

// newPortfolio builds k members for the n-state question (bounded by
// the config table; k ≤ 1 yields the canonical member only). warm, when
// non-nil, is the promoted speculative encoding from the previous
// level, appended as an extra member — it only ever contributes Unsat
// decisions, so its (scheduling-dependent) learned state cannot
// influence the result. The speculative member requires the symmetry
// chain and is skipped when ordering is off or n is at the state cap.
func newPortfolio(n, k, workers, numSyms, maxN int, segments [][]int, anchored []bool,
	blocked [][]int, orderStates bool, warm *encoding) *portfolio {
	if k > len(portfolioConfigs) {
		k = len(portfolioConfigs)
	}
	if workers < 1 {
		workers = 1
	}
	pf := &portfolio{workers: workers}
	for i, cfg := range portfolioConfigs {
		if i >= k && i > 0 {
			break
		}
		if cfg.speculative && (!orderStates || n >= maxN) {
			continue
		}
		capacity := n
		if cfg.speculative {
			capacity = n + 1
		}
		enc := newEncoding(n, capacity, numSyms, segments, anchored, orderStates)
		for _, g := range blocked {
			enc.blockGram(g)
		}
		enc.solver.RestartBase = cfg.restartBase
		enc.solver.Decay = cfg.decay
		if cfg.preferTrue {
			enc.preferTransitions(true)
		}
		pf.members = append(pf.members, &member{cfg: cfg, enc: enc})
	}
	if warm != nil {
		pf.members = append(pf.members, &member{cfg: solverConfig{name: "warm", warm: true}, enc: warm})
	}
	return pf
}

// canonicalModel canonicalizes member 0's Sat model — member 0 is the
// only member models are extracted from — and decodes it over the
// symbol names. It also returns the number of probe solves spent.
func (pf *portfolio) canonicalModel(symbols []string) (*automaton.NFA, int) {
	enc := pf.members[0].enc
	solves := enc.canonicalize()
	return enc.extract(symbols), solves
}

// solve runs one round: every member solves the current constraint
// set, member 0 on the caller's goroutine and the variants on a pool
// bounded by workers-1. It returns the round status — Sat only from
// member 0, Unsat from any member, Unknown when the deadline expired
// with no verdict — plus capUnsat, true when the speculative member
// proved the clauses unsatisfiable even without its capacity
// restriction (no (n+1)-state automaton exists either). All goroutines
// have exited by return, so the caller may freely mutate the members.
func (pf *portfolio) solve(deadline time.Time) (sat.Status, bool) {
	pf.winner = pf.members[0].cfg.name
	pf.specCore = -1
	if len(pf.members) == 1 {
		// Serial: unbounded solve, exactly the non-portfolio path.
		pf.members[0].last = pf.members[0].enc.solve(deadline, nil)
		return pf.members[0].last, false
	}

	pf.stop.Store(false)
	for _, m := range pf.members {
		m.last = sat.Unknown
	}
	interruptAll := func() {
		pf.stop.Store(true)
		for _, m := range pf.members {
			m.enc.solver.Interrupt()
		}
	}

	var wg sync.WaitGroup
	var cursor atomic.Int64 // next variant index; member 0 is the caller's
	slots := pf.workers - 1
	if slots > len(pf.members)-1 {
		slots = len(pf.members) - 1
	}
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(cursor.Add(1))
				if k >= len(pf.members) || pf.stop.Load() {
					return
				}
				m := pf.members[k]
				m.last = m.enc.solve(deadline, &pf.stop)
				if m.last == sat.Unsat {
					// Unsat is terminal for the round: every member
					// solves an equisatisfiable formula.
					interruptAll()
				}
			}
		}()
	}

	m0 := pf.members[0]
	m0.last = m0.enc.solve(deadline, &pf.stop)
	if m0.last != sat.Unknown {
		interruptAll()
	}
	wg.Wait()

	capUnsat := false
	anyUnsat := false
	for _, m := range pf.members {
		if m.last != sat.Unsat {
			continue
		}
		if !anyUnsat {
			pf.winner = m.cfg.name
		}
		anyUnsat = true
		if m.cfg.speculative {
			if core := m.enc.solver.UnsatCore(); core != nil {
				pf.specCore = len(core)
				if len(core) == 0 {
					capUnsat = true
				}
			}
		}
	}
	if anyUnsat {
		return sat.Unsat, capUnsat
	}
	return m0.last, false
}

// maybeSimplify runs growth-gated inprocessing on every member before
// a round. Member 0's pass is a deterministic function of its (serial,
// deterministic) solver state, so the determinism rule is unaffected;
// variant members only ever contribute Unsat verdicts, which
// equivalence-preserving simplification cannot corrupt.
func (pf *portfolio) maybeSimplify() {
	for _, m := range pf.members {
		m.enc.maybeSimplify()
	}
}

// addStats accumulates each member's solver counters into st, keeping
// per-member high-water marks so repeated calls never double count.
func (pf *portfolio) addStats(st *Stats) {
	for _, m := range pf.members {
		d := m.enc.solver.Stats
		st.SATConflicts += d.Conflicts - m.prev.Conflicts
		st.SATDecisions += d.Decisions - m.prev.Decisions
		st.SATPropagations += d.Propagations - m.prev.Propagations
		st.SATLearned += d.Learned - m.prev.Learned
		m.prev = d
	}
}

// blockGram blocks the invalid l-gram on every member.
func (pf *portfolio) blockGram(g []int) {
	for _, m := range pf.members {
		m.enc.blockGram(g)
	}
}

// addSegment extends every member with a new acceptance-refinement
// segment, in place: solvers keep their learned clauses.
func (pf *portfolio) addSegment(seg []int, anchor bool) {
	for _, m := range pf.members {
		m.enc.addSegment(seg, anchor)
	}
}

// anchorSegment upgrades segment i to anchored on every member.
func (pf *portfolio) anchorSegment(i int) {
	for _, m := range pf.members {
		m.enc.anchorSegment(i)
	}
}

// takeWarm extracts a warm encoding for the next level, promoting the
// speculative member when its capacity matches. Nil when there is
// nothing to carry over (the warm member itself is never re-promoted:
// its capacity is already spent).
func (pf *portfolio) takeWarm(next int) *encoding {
	for _, m := range pf.members {
		if m.cfg.speculative && m.enc.capacity == next {
			m.enc.promote()
			return m.enc
		}
	}
	return nil
}
