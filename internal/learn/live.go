// Live model maintenance: Live owns a growing RLE sequence and keeps a
// learned automaton current over it without relearning from scratch on
// every change. It keeps the search its last re-minimization (a plain
// generate over the whole sequence, hence trivially byte-identical to
// a batch relearn) built, and continues it at the N that search found:
// new unique base segments join the search's segment table and its
// encoding, and the same refinement loop runs against the grown
// sequence and gram set. Whenever continuing could diverge from a
// batch relearn, Live re-minimizes instead.
//
// Why continuing at the retained n is exact and not a heuristic: the
// batch search's result is the lex-least compliant-and-accepting
// automaton at the minimal feasible N — a pure function of the input
// sequence. Segment constraints only grow with the prefix (a window of
// P is a window of every extension of P), so every UNSAT proof below n
// from the original search still holds for the grown sequence as long
// as the grams blocked along the way are still invalid — which is
// exactly what the staleness check guarantees. When extension then
// finds a compliant, accepting model at n, n is still the minimal N,
// and canonical extraction yields the same lex-least model a fresh
// search would. The three ways that argument can break each force a
// re-minimization instead:
//
//   - a retained blocked gram became a valid gram of the grown
//     sequence (the UNSAT proofs below n may no longer hold, and the
//     retained blocking clauses cannot be removed from the solver),
//   - a new symbol appeared (the retained encoding's transition
//     variables are sized for the alphabet at build time),
//   - the constraints went UNSAT at n (the model needs more states).
package learn

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/automaton"
	"repro/internal/sat"
)

// Live keeps one automaton current over a growing sequence. It is not
// safe for concurrent use; the maintainer serialises access.
type Live struct {
	opts Options
	seq  *Seq

	segScan  *winScan
	gramScan *winScan

	// The unique base windows seen so far — what a fresh segmentation
	// of the current sequence would record — and those the search has
	// not yet recorded.
	baseIndex map[string]bool
	pending   [][]int32

	validGrams map[string]bool
	freshGrams bool // a gram became valid since the last solve fixpoint
	keyBuf     []byte

	// s is the search the last successful re-minimization built; nil
	// before the first model, and after a failed re-minimization (its
	// solver was lent to that search).
	s     *search
	stale bool // a blocked gram of s became valid

	model *automaton.NFA
	stats Stats
}

// NewLive returns a Live learner over an initially empty sequence.
// Only the segmented single-sequence configuration is supported: the
// non-segmented baseline is O(length) per constraint and has no
// incremental form.
func NewLive(opts Options) (*Live, error) {
	opts = opts.withDefaults()
	if !opts.Segmented {
		return nil, errors.New("learn: live maintenance requires the segmented encoding")
	}
	return &Live{
		opts:       opts,
		seq:        NewSeq(),
		segScan:    newWinScan(opts.Window),
		gramScan:   newWinScan(opts.ComplianceLen),
		baseIndex:  map[string]bool{},
		validGrams: map[string]bool{},
	}, nil
}

// rle views the current sequence in the learner's global id space
// (identical to the local one: a single sequence re-interns to itself).
func (l *Live) rle() *rleSeq {
	return &rleSeq{ids: l.seq.ids, counts: l.seq.counts, total: l.seq.total}
}

// Model returns the current automaton (nil before the first learn).
func (l *Live) Model() *automaton.NFA { return l.model }

// Stats returns the cumulative search effort across all revisions.
func (l *Live) Stats() Stats { return l.stats }

// Len returns the expanded length of the maintained sequence.
func (l *Live) Len() int { return l.seq.Len() }

// Runs returns the number of RLE runs of the maintained sequence.
func (l *Live) Runs() int { return l.seq.Runs() }

// Segments returns the number of unique base segments seen so far.
func (l *Live) Segments() int { return len(l.baseIndex) }

// Pending returns the number of unique base segments not yet
// constraining the current model.
func (l *Live) Pending() int { return len(l.pending) }

// Symbols returns the interned symbol table (do not mutate).
func (l *Live) Symbols() []string { return l.seq.syms }

// SymbolID returns the id of an already-interned symbol, or -1.
func (l *Live) SymbolID(sym string) int {
	if id, ok := l.seq.symID[sym]; ok {
		return id
	}
	return -1
}

// Ready reports whether the sequence is long enough to learn from: the
// first model waits for one full segmentation window, so the live base
// segmentation matches the batch one from the very first learn.
func (l *Live) Ready() bool { return l.seq.total >= l.opts.Window }

// Append extends the sequence with count occurrences of sym and feeds
// the incremental scanners. It returns the number of new unique base
// segments the appended run completed — new evidence the current model
// has not been constrained by.
func (l *Live) Append(sym string, count int) int {
	if count <= 0 {
		return 0
	}
	return l.AppendID(l.seq.InternSym(sym), count)
}

// AppendID is Append for an id InternSym already assigned.
func (l *Live) AppendID(id, count int) int {
	if count <= 0 {
		return 0
	}
	l.seq.AppendID(id, count)
	newSegs := 0
	l.segScan.feed(int32(id), count, func(_ int, win []int32) {
		l.keyBuf = appendIntsKey32(l.keyBuf[:0], win)
		if !l.baseIndex[string(l.keyBuf)] {
			l.baseIndex[string(l.keyBuf)] = true
			l.pending = append(l.pending, append([]int32(nil), win...))
			newSegs++
		}
	})
	l.gramScan.feed(int32(id), count, func(_ int, win []int32) {
		l.keyBuf = appendIntsKey32(l.keyBuf[:0], win)
		if !l.validGrams[string(l.keyBuf)] {
			l.validGrams[string(l.keyBuf)] = true
			l.freshGrams = true
			if l.s != nil && l.s.blockedSet[string(l.keyBuf)] {
				// A gram blocked by the retained search just became
				// a valid gram of the grown sequence: the retained
				// clauses (and the UNSAT proofs below n) are no
				// longer sound. Force a re-minimization.
				l.stale = true
			}
		}
	})
	return newSegs
}

// Revise brings the model up to date with the appended evidence: a
// no-solver no-op when nothing changed, an incremental extension of
// the retained search when that is provably exact, and a full
// re-minimization otherwise (or when forced by the caller's policy).
// It reports whether a re-minimization ran. After a nil-error return
// the model accepts the whole current sequence and is byte-identical
// to a fresh GenerateModelSeqs over it.
func (l *Live) Revise(forceRemin bool) (reminimized bool, err error) {
	if l.seq.total == 0 {
		return false, errors.New("learn: empty live sequence")
	}
	if l.seq.total < l.opts.Window {
		return false, fmt.Errorf("learn: live sequence shorter than the segmentation window (%d < %d)", l.seq.total, l.opts.Window)
	}
	needRemin := forceRemin || l.s == nil || l.stale || len(l.seq.syms) > l.s.enc.numSyms
	if !needRemin && len(l.pending) == 0 && !l.freshGrams {
		// No new evidence of any kind: every window of the appended
		// suffix was already a constrained segment and no gram or
		// symbol is new. The model is still the lex-least member of an
		// unchanged solution set; the only thing left to verify is
		// that it accepts the grown sequence, which the RLE simulation
		// checks without any solver work (the live fast path). A fresh
		// valid gram, even with no new segment, disables this skip: it
		// enlarges the compliant set and may admit a lex-smaller model
		// that a batch relearn would find.
		if _, k := l.rle().walk(l.model, l.seq.syms); k < 0 {
			return false, nil
		}
		// It rejects: fall through to extension, whose acceptance
		// refinement will widen the constraint set exactly as a batch
		// relearn over the grown prefix would.
	}
	if !needRemin {
		err := l.extend()
		if err == nil {
			return false, nil
		}
		if err != errNeedGrow {
			return false, err
		}
		// UNSAT at the retained level: the grown sequence needs more
		// states. Discard the encoding and search from scratch.
	}
	return true, l.reminimize()
}

// reminimize relearns from the whole sequence — the canonical path —
// and keeps the search for future extension. The new search builds on
// the retained solver, which the retained search then no longer owns:
// it is dropped first, so a failed search leaves the model but no
// retained search, and the next Revise re-minimizes again.
func (l *Live) reminimize() error {
	var spare *sat.Solver
	if l.s != nil {
		spare = l.s.enc.solver
		l.s = nil
	}
	res, s, err := generate([]*Seq{l.seq}, l.opts, spare)
	if err != nil {
		return err
	}
	l.accumulate(res.Stats)
	l.model = res.Automaton
	l.s = s
	l.stale = false
	l.freshGrams = false
	l.pending = l.pending[:0]
	return nil
}

// accumulate folds one revision's search effort into the cumulative
// stats, keeping the point-in-time fields (Segments, FinalStates) at
// their latest successful values.
func (l *Live) accumulate(st Stats) {
	l.stats.SolverCalls += st.SolverCalls
	l.stats.Refinements += st.Refinements
	l.stats.AcceptRefinements += st.AcceptRefinements
	l.stats.SATConflicts += st.SATConflicts
	l.stats.SATDecisions += st.SATDecisions
	l.stats.SATPropagations += st.SATPropagations
	l.stats.SATLearned += st.SATLearned
	l.stats.Duration += st.Duration
	l.stats.CPU += st.CPU
	if st.FinalStates > 0 {
		l.stats.Segments = st.Segments
		l.stats.FinalStates = st.FinalStates
	}
}

// extend continues the retained search at its level n: it records the
// pending base windows, points the search at the grown sequence and
// gram set, and runs the refinement loop again. It returns errNeedGrow
// on UNSAT (caller re-minimizes). Its search effort, wall and CPU time
// count towards Stats on every return path, failed extensions
// included.
func (l *Live) extend() error {
	s := l.s
	start := time.Now()
	cpuStart := cpuTime()
	s.stats = Stats{}
	defer func() {
		s.stats.Duration = time.Since(start)
		s.stats.CPU = cpuTime() - cpuStart
		l.accumulate(s.stats)
	}()
	s.deadline = time.Time{}
	if l.opts.Timeout > 0 {
		s.deadline = start.Add(l.opts.Timeout)
	}
	// Only the window at position 0 anchors, and it is recorded before
	// the first re-minimization, which clears pending. Pending stays
	// set until the refinement loop succeeds, so a cut-short extension
	// leaves the learner dirty; its retry re-records nothing, since
	// record dedupes.
	for _, win := range l.pending {
		if idx, added, _ := s.record(win, false); added {
			s.enc.addSegment(s.segments[idx], false)
		}
	}
	s.seqs[0] = l.rle()
	s.validGrams = l.validGrams
	m, err := s.refine()
	if err != nil {
		return err
	}
	l.pending = l.pending[:0]
	l.model = m
	l.freshGrams = false
	return nil
}

// Dirty reports whether evidence has arrived that the current model is
// not yet constrained by — new segments, newly valid grams, new
// symbols, or a stale retained blocked gram — or no retained search
// exists: before the first model, and after a failed re-minimization
// (whose model is the last good one, but whose solver is gone), so the
// next Revise re-minimizes. A clean learner's model is already
// byte-identical to a batch relearn (up to full-sequence acceptance,
// which the maintainer's fast-path stepping verifies), so callers skip
// Revise entirely while clean.
func (l *Live) Dirty() bool {
	return l.s == nil || len(l.pending) > 0 || l.stale || l.freshGrams ||
		len(l.seq.syms) > l.s.enc.numSyms
}

// Walk runs the current model over the whole maintained sequence from
// its initial state and returns the final state, with ok=false if the
// model rejects (impossible right after a successful Revise). Runs the
// model self-loops on are consumed in O(1).
func (l *Live) Walk() (automaton.State, bool) {
	if l.model == nil {
		return 0, false
	}
	cur, k := l.rle().walk(l.model, l.seq.syms)
	return cur, k < 0
}
