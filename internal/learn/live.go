// Live model maintenance: Live owns a growing RLE sequence and keeps a
// learned automaton current over it without relearning from scratch on
// every change. It continues GenerateModelSeqs' refinement loop at the
// retained level n — new unique base segments extend the live solver
// via addSegment, compliance violations via blockGram — and falls back
// to a full re-minimization (a plain GenerateModelSeqs call over the
// whole sequence, hence trivially byte-identical to a batch relearn)
// whenever incremental extension could diverge from it.
//
// Why extension at the retained n is exact and not a heuristic: the
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

// errNeedGrow is the internal signal that extension went UNSAT at the
// retained level: the caller must re-minimize.
var errNeedGrow = errors.New("learn: live extension unsatisfiable at retained level")

// winScan incrementally enumerates the unique-window visits of
// rleSeq.windows over a growing sequence: feeding it the appended runs
// visits exactly the window start positions — in the same order — that
// a batch windows(size) scan of the final sequence visits. The skip
// rule is the same: a position is skipped iff its window equals the
// previous position's, i.e. the trailing size+1 symbols are all equal.
type winScan struct {
	size  int
	ring  []int32 // last `size` symbols, circular
	buf   []int32 // in-order window scratch handed to visit
	n     int     // total symbols consumed
	eqLen int     // trailing equal-symbol run length, capped at size+1
}

func newWinScan(size int) *winScan {
	return &winScan{size: size, ring: make([]int32, size), buf: make([]int32, size)}
}

// feed consumes one appended run. visit's win slice is reused; copy to
// keep. Runs the scan has proven constant-inside are skipped in O(1).
func (ws *winScan) feed(id int32, count int, visit func(start int, win []int32)) {
	for count > 0 {
		if ws.n > 0 && ws.ring[(ws.n-1)%ws.size] == id && ws.eqLen >= ws.size+1 {
			// Every remaining position of this run sits strictly
			// inside an equal-symbol run of length ≥ size+1: all
			// skipped, and the ring stays all-id.
			ws.n += count
			return
		}
		if ws.n > 0 && ws.ring[(ws.n-1)%ws.size] == id {
			if ws.eqLen < ws.size+1 {
				ws.eqLen++
			}
		} else {
			ws.eqLen = 1
		}
		ws.ring[ws.n%ws.size] = id
		ws.n++
		count--
		if ws.n >= ws.size && ws.eqLen < ws.size+1 {
			start := ws.n - ws.size
			for k := 0; k < ws.size; k++ {
				ws.buf[k] = ws.ring[(start+k)%ws.size]
			}
			visit(start, ws.buf)
		}
	}
}

// Live keeps one automaton current over a growing sequence. It is not
// safe for concurrent use; the maintainer serialises access.
type Live struct {
	opts Options
	seq  *Seq

	segScan  *winScan
	gramScan *winScan

	// Base segmentation tables, maintained incrementally and equal at
	// all times to what a fresh windows(w) segmentation of the current
	// sequence would record.
	baseIndex map[string]int
	baseSegs  [][]int
	baseAnch  []bool
	pending   []int // base segment indices not yet constraining the search

	validGrams map[string]bool
	freshGrams bool // a gram became valid since the last solve fixpoint
	keyBuf     []byte

	// Retained search state (nil enc until the first learn, and after a
	// re-minimization that failed: its solver was lent to that search).
	// The encoding fixes the retained level enc.n and the alphabet size
	// enc.numSyms its transition variables were built for.
	enc          *encoding
	acceptWindow int
	blocked      [][]int
	blockedSet   map[string]bool
	stale        bool // a retained blocked gram became valid
	workIndex    map[string]int
	workSegs     [][]int
	workAnch     []bool

	model *automaton.NFA
	stats Stats
}

// NewLive returns a Live learner over an initially empty sequence.
// Only the segmented single-sequence configuration is supported (the
// non-segmented baseline is O(length) per constraint and has no
// incremental form), and checkpoint callbacks/resume belong to the
// batch entry points.
func NewLive(opts Options) (*Live, error) {
	opts = opts.withDefaults()
	if !opts.Segmented {
		return nil, errors.New("learn: live maintenance requires the segmented encoding")
	}
	if opts.Checkpoint != nil || opts.Resume != nil {
		return nil, errors.New("learn: live maintenance does not take batch checkpoint options")
	}
	return &Live{
		opts:       opts,
		seq:        NewSeq(),
		segScan:    newWinScan(opts.Window),
		gramScan:   newWinScan(opts.ComplianceLen),
		baseIndex:  map[string]int{},
		validGrams: map[string]bool{},
		blockedSet: map[string]bool{},
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
func (l *Live) Segments() int { return len(l.baseSegs) }

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
	l.segScan.feed(int32(id), count, func(start int, win []int32) {
		if l.recordBase(win, start == 0) {
			newSegs++
		}
	})
	l.gramScan.feed(int32(id), count, func(start int, win []int32) {
		l.keyBuf = appendIntsKey32(l.keyBuf[:0], win)
		if !l.validGrams[string(l.keyBuf)] {
			l.validGrams[string(l.keyBuf)] = true
			l.freshGrams = true
			if l.blockedSet[string(l.keyBuf)] {
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

// recordBase records one base window; reports whether it was new. The
// first window is the anchored sequence prefix; later windows never
// anchor, so no anchor upgrades happen on the base path (same as a
// batch scan).
func (l *Live) recordBase(win []int32, anchor bool) bool {
	l.keyBuf = appendIntsKey32(l.keyBuf[:0], win)
	if _, ok := l.baseIndex[string(l.keyBuf)]; ok {
		return false
	}
	seg := make([]int, len(win))
	for i, x := range win {
		seg[i] = int(x)
	}
	l.baseIndex[string(l.keyBuf)] = len(l.baseSegs)
	l.baseSegs = append(l.baseSegs, seg)
	l.baseAnch = append(l.baseAnch, anchor)
	l.pending = append(l.pending, len(l.baseSegs)-1)
	return true
}

// recordWork dedups seg against the working segment table (base plus
// acceptance-refinement additions of the retained search), mirroring
// recordSegment of the batch loop.
func (l *Live) recordWork(seg []int, anchor bool) (idx int, added, anchorUp bool) {
	l.keyBuf = appendIntsKey(l.keyBuf[:0], seg)
	if i, ok := l.workIndex[string(l.keyBuf)]; ok {
		if anchor && !l.workAnch[i] {
			l.workAnch[i] = true
			return i, false, true
		}
		return i, false, false
	}
	l.workIndex[string(l.keyBuf)] = len(l.workSegs)
	l.workSegs = append(l.workSegs, append([]int(nil), seg...))
	l.workAnch = append(l.workAnch, anchor)
	return len(l.workSegs) - 1, true, false
}

// Revise brings the model up to date with the appended evidence: a
// no-solver no-op when nothing changed, an incremental extension of
// the retained encoding when that is provably exact, and a full
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
	needRemin := forceRemin || l.enc == nil || l.stale ||
		len(l.seq.syms) > l.enc.numSyms || l.opts.ScratchRefinement
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
		if l.rle().firstReject(l.model, l.seq.syms) < 0 {
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
// and adopts the search's live state for future extension. The search
// builds on the retained solver, which the retained encoding then no
// longer owns: it is dropped first, so a failed search leaves the
// model but no encoding, and the next Revise re-minimizes again.
func (l *Live) reminimize() error {
	opts := l.opts
	var ret searchRetained
	opts.retain = &ret
	if l.enc != nil {
		opts.spare = l.enc.solver
		l.enc = nil
	}
	res, err := GenerateModelSeqs([]*Seq{l.seq}, opts)
	if err != nil {
		return err
	}
	l.accumulate(res.Stats)
	l.model = res.Automaton
	l.enc = ret.enc
	l.acceptWindow = ret.acceptWindow
	l.blocked = ret.blocked
	l.stale = false
	l.freshGrams = false
	l.pending = l.pending[:0]
	l.blockedSet = make(map[string]bool, len(l.blocked))
	for _, g := range l.blocked {
		l.blockedSet[intsKey(g)] = true
	}
	l.workSegs = ret.segments
	l.workAnch = ret.anchored
	l.workIndex = make(map[string]int, len(l.workSegs))
	for i, seg := range l.workSegs {
		l.workIndex[intsKey(seg)] = i
	}
	return nil
}

// accumulate folds one revision's search effort into the cumulative
// stats, keeping the point-in-time fields (Segments, FinalStates) at
// their latest values.
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
	l.stats.Segments = st.Segments
	l.stats.FinalStates = st.FinalStates
}

// extend continues the retained search at level n with the pending
// base segments, re-running the compliance and acceptance refinement
// loop of GenerateModelSeqs against the grown sequence. It returns
// errNeedGrow on UNSAT (caller re-minimizes). Its wall and CPU time
// count towards Stats on every return path, failed extensions
// included.
func (l *Live) extend() error {
	start := time.Now()
	cpuStart := cpuTime()
	defer func() {
		l.stats.Duration += time.Since(start)
		l.stats.CPU += cpuTime() - cpuStart
	}()
	deadline := time.Time{}
	if l.opts.Timeout > 0 {
		deadline = start.Add(l.opts.Timeout)
	}
	for _, bi := range l.pending {
		idx, added, anchorUp := l.recordWork(l.baseSegs[bi], l.baseAnch[bi])
		if added {
			l.enc.addSegment(l.workSegs[idx], l.workAnch[idx])
		} else if anchorUp {
			// A base window that the retained search had already
			// added as an unanchored acceptance window.
			l.enc.anchorSegment(idx)
		}
	}
	l.pending = l.pending[:0]

	tel := l.opts.Telemetry
	cSolves := tel.Count("solver_calls_total")
	cGramsBlocked := tel.Count("learn_grams_blocked_total")
	cSegmentsAdded := tel.Count("learn_segments_added_total")
	hSolveNS := tel.Hist("solver_call_ns", "ns")
	hCanonNS := tel.Hist("learn_canonical_ns", "ns")
	cCanonSolves := tel.Count("learn_canonical_solves_total")

	rs := l.rle()
	symbols := l.seq.syms
	refinements := 0
	acceptRefinements := 0
	for {
		if l.opts.Context != nil {
			if err := l.opts.Context.Err(); err != nil {
				return fmt.Errorf("learn: %w", err)
			}
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return ErrTimeout
		}
		l.stats.SolverCalls++
		cSolves.Add(1)
		t0 := time.Now()
		status := l.enc.solve(deadline)
		hSolveNS.Since(t0)
		tel.Prof().Observe("solve", time.Since(t0))
		l.enc.addStats(&l.stats)
		if status == sat.Unknown {
			return ErrBudgetExceeded
		}
		if status == sat.Unsat {
			return errNeedGrow
		}
		t0 = time.Now()
		probes := l.enc.canonicalize()
		m := l.enc.extract(symbols)
		hCanonNS.Since(t0)
		cCanonSolves.Add(int64(probes))

		// Compliance refinement against the grown gram set.
		invalid := invalidSequences(m, l.validGrams, l.seq.symID, l.opts.ComplianceLen)
		if len(invalid) > 0 {
			refinements++
			l.stats.Refinements++
			cGramsBlocked.Add(int64(len(invalid)))
			if refinements > l.opts.MaxRefinements {
				return fmt.Errorf("learn: more than %d refinements at N=%d", l.opts.MaxRefinements, l.enc.n)
			}
			for _, g := range invalid {
				l.blocked = append(l.blocked, g)
				l.blockedSet[intsKey(g)] = true
				l.enc.blockGram(g)
			}
			continue
		}

		// Acceptance refinement against the whole grown sequence.
		k := rs.firstReject(m, symbols)
		if k < 0 {
			l.model = m
			l.freshGrams = false
			l.stats.Segments = len(l.workSegs)
			l.stats.FinalStates = l.enc.n
			return nil
		}
		acceptRefinements++
		l.stats.AcceptRefinements++
		if acceptRefinements > l.opts.MaxRefinements {
			return fmt.Errorf("learn: more than %d acceptance refinements at N=%d", l.opts.MaxRefinements, l.enc.n)
		}
		var idx int
		var added, anchorUp bool
		for {
			lo := k + 1 - l.acceptWindow
			if lo < 0 {
				lo = 0
			}
			seg32 := rs.expand(lo, k+1)
			seg := make([]int, len(seg32))
			for i, x := range seg32 {
				seg[i] = int(x)
			}
			idx, added, anchorUp = l.recordWork(seg, lo == 0)
			if added || anchorUp {
				break
			}
			if l.acceptWindow > 2*l.seq.total {
				return fmt.Errorf("learn: acceptance refinement stuck at position %d", k)
			}
			l.acceptWindow *= 2
		}
		if added {
			cSegmentsAdded.Add(1)
			l.enc.addSegment(l.workSegs[idx], l.workAnch[idx])
		} else {
			l.enc.anchorSegment(idx)
		}
	}
}

// Checkpoint snapshots the retained search state in the same form the
// batch search checkpoints: resuming a fresh GenerateModelSeqs from it
// (over the same sequence) reproduces the current model without any
// refinement work. Nil when there is no retained search: before the
// first successful revision, and after a failed re-minimization until
// the next successful one.
func (l *Live) Checkpoint() *CheckpointState {
	if l.enc == nil {
		return nil
	}
	return &CheckpointState{
		N:            l.enc.n,
		AcceptWindow: l.acceptWindow,
		Blocked:      copyInts(l.blocked),
		Segments:     copyInts(l.workSegs),
		Anchored:     append([]bool(nil), l.workAnch...),
		Stats:        l.stats,
	}
}

// SeqState snapshots the maintained sequence (see NewSeqFromState).
func (l *Live) SeqState() *SeqState { return l.seq.State() }

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
	return l.enc == nil || len(l.pending) > 0 || l.stale || l.freshGrams ||
		len(l.seq.syms) > l.enc.numSyms
}

// Walk runs the current model over the whole maintained sequence from
// its initial state and returns the final state, with ok=false if the
// model rejects (impossible right after a successful Revise). Runs the
// model self-loops on are consumed in O(1).
func (l *Live) Walk() (automaton.State, bool) {
	m := l.model
	if m == nil {
		return 0, false
	}
	cur := m.Initial()
	for i, id := range l.seq.ids {
		key := l.seq.syms[id]
		for j := int32(0); j < l.seq.counts[i]; j++ {
			next, ok := m.Step(cur, key)
			if !ok {
				return cur, false
			}
			if next == cur {
				break // self-loop absorbs the rest of the run
			}
			cur = next
		}
	}
	return cur, true
}
