// Run-length-encoded model learning: GenerateModelSeqs learns over RLE
// symbol sequences, so the streaming pipeline can hand the learner its
// predicate stream without ever materialising the expanded sequence.
// Resident memory is O(runs + unique segments + unique grams); on the
// long, repetition-dominated traces the paper targets, runs ≪ length.
//
// The window visitor enumerates window occurrences in position order
// and skips only a window identical to its predecessor (which segment
// recording would dedupe anyway), so the first-occurrence order of
// segments — and therefore the encoding, the solver decisions and the
// learned automaton — is bit-for-bit the same as scanning the expanded
// sequence.
package learn

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/automaton"
	"repro/internal/pipeline"
	"repro/internal/sat"
)

// Seq is a run-length-encoded symbol sequence under construction: the
// streaming pipeline appends one run per emitted predicate run. Symbols
// are interned locally in first-appearance order.
type Seq struct {
	syms   []string
	symID  map[string]int
	ids    []int32 // per-run local symbol ids
	counts []int32 // per-run lengths
	total  int
}

// NewSeq returns an empty sequence.
func NewSeq() *Seq {
	return &Seq{symID: map[string]int{}}
}

// InternSym returns the local id of sym, assigning the next one on
// first sight. Callers that can cache the id by a cheaper identity
// than the symbol string (the streaming pipeline keys on the interned
// predicate pointer) combine it with AppendID to skip hashing long
// predicate keys on every run.
func (s *Seq) InternSym(sym string) int {
	id, ok := s.symID[sym]
	if !ok {
		id = len(s.syms)
		s.symID[sym] = id
		s.syms = append(s.syms, sym)
	}
	return id
}

// Append appends count occurrences of sym, merging into the last run
// when the symbol matches, so runs stay maximal regardless of how the
// caller chunks its input. Runs longer than MaxInt32 are split; the
// consumers tolerate equal adjacent runs.
func (s *Seq) Append(sym string, count int) {
	if count <= 0 {
		return
	}
	s.AppendID(s.InternSym(sym), count)
}

// AppendID is Append for an id InternSym already assigned.
func (s *Seq) AppendID(id int, count int) {
	if count <= 0 {
		return
	}
	s.total += count
	if n := len(s.ids); n > 0 && s.ids[n-1] == int32(id) && int(s.counts[n-1])+count <= math.MaxInt32 {
		s.counts[n-1] += int32(count)
		return
	}
	for count > math.MaxInt32 {
		s.ids = append(s.ids, int32(id))
		s.counts = append(s.counts, math.MaxInt32)
		count -= math.MaxInt32
	}
	s.ids = append(s.ids, int32(id))
	s.counts = append(s.counts, int32(count))
}

// Len returns the expanded sequence length.
func (s *Seq) Len() int { return s.total }

// Runs returns the number of stored runs.
func (s *Seq) Runs() int { return len(s.ids) }

// cpuTime reads the process CPU clock for Stats.CPU; a variable so
// tests can substitute a deterministic clock.
var cpuTime = pipeline.CPUTime

// rleSeq is a Seq with its symbols re-interned into the global (cross-
// sequence) id space the learner uses.
type rleSeq struct {
	ids    []int32 // per-run global symbol ids
	counts []int32
	total  int
}

// windows calls visit(pos, win) for the content of the w-window at
// each start position in increasing order, skipping a position exactly
// when its window equals the previous position's window — which
// happens iff the sequence is constant on [pos−1, pos−1+w], i.e.
// inside a run of length ≥ w+1. Position 0 is always visited (anchor
// correctness). win is reused across calls; visitors must copy what
// they keep.
func (s *rleSeq) windows(w int, visit func(pos int, win []int32)) {
	if w <= 0 || w > s.total {
		return
	}
	win := make([]int32, w)
	last := s.total - w // last valid start position
	base := 0
	for r := range s.ids {
		c := int(s.counts[r])
		o := 0
		if c >= w {
			// Starts 0 … c−w inside this run share one constant
			// window: visit the first, skip the rest.
			s.fill(win, r, 0)
			visit(base, win)
			o = c - w + 1
			if o < 1 {
				o = 1
			}
		}
		for ; o < c; o++ {
			pos := base + o
			if pos > last {
				break
			}
			s.fill(win, r, o)
			visit(pos, win)
		}
		base += c
	}
}

// fill copies the window starting at offset o of run r into win.
func (s *rleSeq) fill(win []int32, r, o int) {
	k := 0
	for k < len(win) {
		c := int(s.counts[r])
		id := s.ids[r]
		for ; o < c && k < len(win); o++ {
			win[k] = id
			k++
		}
		if o == c {
			r++
			o = 0
		}
	}
}

// expand materialises positions [lo, hi) as global symbol ids (the
// acceptance-refinement windows; rare and bounded by the refinement
// window, except in degenerate cases where it soundly grows into the
// full prefix).
func (s *rleSeq) expand(lo, hi int) []int32 {
	out := make([]int32, 0, hi-lo)
	base := 0
	for r := 0; r < len(s.ids) && base < hi; r++ {
		c := int(s.counts[r])
		from, to := lo, hi
		if from < base {
			from = base
		}
		if to > base+c {
			to = base + c
		}
		for p := from; p < to; p++ {
			out = append(out, s.ids[r])
		}
		base += c
	}
	return out
}

// firstReject runs the sequence through the (deterministic) automaton
// from its initial state and returns the position of the first symbol
// with no transition, or −1. Runs the automaton self-loops on are
// consumed in O(1).
func (s *rleSeq) firstReject(m *automaton.NFA, symbols []string) int {
	cur := m.Initial()
	pos := 0
	for r := range s.ids {
		sym := symbols[s.ids[r]]
		c := int(s.counts[r])
		for i := 0; i < c; i++ {
			succ := m.Successors(cur, sym)
			if len(succ) == 0 {
				return pos
			}
			if succ[0] == cur {
				// Self-loop: the rest of the run stays put.
				pos += c - i
				break
			}
			cur = succ[0]
			pos++
		}
	}
	return -1
}

// GenerateModelSeqs learns one automaton from several run-length-
// encoded symbol sequences (the canonical predicate keys, or raw event
// names for event traces) — independent runs of the same system, all
// starting in the same initial state. Segments, valid l-grams and
// acceptance constraints are the unions over the runs; the learned
// model accepts every run from its initial state. This implements the
// multi-run learning the paper's prospects section motivates
// (exercising the system several ways to close coverage holes).
func GenerateModelSeqs(inSeqs []*Seq, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if len(inSeqs) == 0 {
		return nil, errors.New("learn: no input sequences")
	}
	for _, s := range inSeqs {
		if s == nil || s.total == 0 {
			return nil, errors.New("learn: empty input sequence")
		}
	}
	start := time.Now()
	cpuStart := cpuTime()
	deadline := time.Time{}
	if opts.Timeout > 0 {
		deadline = start.Add(opts.Timeout)
	}

	// Re-intern symbols into one global table, in first-appearance
	// order across the sequences. Each sequence's local ids were
	// themselves assigned in first-appearance order, so interning the
	// local symbol table in id order reproduces exactly the order an
	// expanded scan would intern in — and the per-run remap is then an
	// O(1) array index instead of a map lookup on a long predicate key.
	symID := map[string]int{}
	var symbols []string
	seqs := make([]*rleSeq, len(inSeqs))
	for t, in := range inSeqs {
		local := make([]int32, len(in.syms))
		for lid, sym := range in.syms {
			gid, ok := symID[sym]
			if !ok {
				gid = len(symbols)
				symID[sym] = gid
				symbols = append(symbols, sym)
			}
			local[lid] = int32(gid)
		}
		ids := make([]int32, len(in.ids))
		for i, lid := range in.ids {
			ids[i] = local[lid]
		}
		seqs[t] = &rleSeq{ids: ids, counts: in.counts, total: in.total}
	}

	// Segment the sequences (Algorithm 1 line 16). Every sequence's
	// prefix window is anchored: the encoding pins its first slot to
	// state 0, fixing the shared initial state.
	//
	// Acceptance refinement: embedding every w-window does not by
	// itself make the automaton accept P — the solver can return
	// "parity" models whose windows all embed somewhere but whose
	// single deterministic run dead-ends. Any automaton that accepts
	// P embeds every sub-window of every length, so when the run of
	// the candidate automaton dead-ends at position k we add the
	// window of P ending at k+1 as an extra (deduplicated) path
	// constraint and re-solve, doubling the window length when the
	// same content recurs. Windows that reach back to position 0 are
	// anchored at the initial state, so the loop always makes
	// progress; in the worst case the constraint grows into the full
	// prefix and the search degenerates soundly into the
	// non-segmented encoding. Repeating trace patterns are still
	// constrained only once, preserving the segmentation speedup.
	var segments [][]int
	var anchored []bool
	segIndex := map[string]int{}
	var segKeyBuf []byte // reused; lookups via string(segKeyBuf) don't allocate
	recordSegment := func(win []int, anchor bool) (idx int, added, anchorUp bool) {
		segKeyBuf = appendIntsKey(segKeyBuf[:0], win)
		if i, ok := segIndex[string(segKeyBuf)]; ok {
			if anchor && !anchored[i] {
				anchored[i] = true
				return i, false, true
			}
			return i, false, false
		}
		segIndex[string(segKeyBuf)] = len(segments)
		segments = append(segments, append([]int(nil), win...))
		anchored = append(anchored, anchor)
		return len(segments) - 1, true, false
	}
	var seg32Buf []int // reused window-conversion scratch
	recordSegment32 := func(win []int32, anchor bool) (int, bool, bool) {
		if cap(seg32Buf) < len(win) {
			seg32Buf = make([]int, len(win))
		}
		w := seg32Buf[:len(win)]
		for i, x := range win {
			w[i] = int(x)
		}
		return recordSegment(w, anchor)
	}
	windowFor := func(s *rleSeq) int {
		w := opts.Window
		if w > s.total {
			w = s.total
		}
		return w
	}
	maxW := 0
	for _, s := range seqs {
		w := windowFor(s)
		if w > maxW {
			maxW = w
		}
		if opts.Resume != nil {
			continue // segment table restored below
		}
		if opts.Segmented {
			s.windows(w, func(pos int, win []int32) {
				recordSegment32(win, pos == 0)
			})
		} else {
			// Non-segmented baseline: the whole sequence is one
			// segment, so this mode is O(length) resident by design.
			recordSegment32(s.expand(0, s.total), true)
		}
	}
	if opts.Resume != nil {
		// Replay the checkpointed segment table (base windows plus any
		// acceptance-refinement additions and anchor upgrades) in its
		// first-record order: the dedup index, ids and anchor flags
		// come out exactly as the interrupted run left them.
		st := opts.Resume
		if len(st.Segments) != len(st.Anchored) {
			return nil, fmt.Errorf("learn: resume state has %d segments, %d anchor flags", len(st.Segments), len(st.Anchored))
		}
		for i, win := range st.Segments {
			for _, id := range win {
				if id < 0 || id >= len(symbols) {
					return nil, fmt.Errorf("learn: resume segment %d references symbol %d of %d", i, id, len(symbols))
				}
			}
			recordSegment(win, st.Anchored[i])
		}
	}

	// Valid l-grams (the set P_l of Algorithm 1 line 42), unioned
	// over the sequences. The duplicate-skipping visitor feeds a set,
	// so the skips are free coverage-wise.
	l := opts.ComplianceLen
	validGrams := map[string]bool{}
	gramKey := make([]byte, 0, 4*l)
	for _, s := range seqs {
		s.windows(l, func(pos int, win []int32) {
			gramKey = appendIntsKey32(gramKey[:0], win)
			if !validGrams[string(gramKey)] {
				// Insert materialises the key string; the dominant
				// already-seen case stays allocation-free.
				validGrams[string(gramKey)] = true
			}
		})
	}

	stats := Stats{}
	var blocked [][]int      // invalid l-grams accumulated across N
	acceptWindow := 2 * maxW // current acceptance-refinement window length
	startN := opts.StartStates
	resumeRefinements := 0
	if opts.Resume != nil {
		st := opts.Resume
		for i, g := range st.Blocked {
			for _, id := range g {
				if id < 0 || id >= len(symbols) {
					return nil, fmt.Errorf("learn: resume blocked gram %d references symbol %d of %d", i, id, len(symbols))
				}
			}
		}
		stats = st.Stats
		blocked = copyInts(st.Blocked)
		if st.AcceptWindow > 0 {
			acceptWindow = st.AcceptWindow
		}
		if st.N > 0 {
			startN = st.N
		}
		resumeRefinements = st.Refinements
	}
	maxSeqLen := 0
	for _, s := range seqs {
		if s.total > maxSeqLen {
			maxSeqLen = s.total
		}
	}

	// Telemetry: resolved once, recorded unconditionally (every object
	// no-ops when nil). Spans and events are additionally gated on
	// tracer enablement because building their attrs allocates.
	tel := opts.Telemetry
	tr := tel.Trace()
	cSolves := tel.Count("solver_calls_total")
	cGramsBlocked := tel.Count("learn_grams_blocked_total")
	cSegmentsAdded := tel.Count("learn_segments_added_total")
	hSolveNS := tel.Hist("solver_call_ns", "ns")
	hCanonNS := tel.Hist("learn_canonical_ns", "ns")
	cCanonSolves := tel.Count("learn_canonical_solves_total")

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	orderStates := !opts.NoSymmetryBreaking
	buildPortfolio := func(n int, warm *encoding) *portfolio {
		return newPortfolio(n, opts.Portfolio, workers, len(symbols), opts.MaxStates,
			segments, anchored, blocked, orderStates, warm)
	}
	finish := func() {
		stats.Duration = time.Since(start)
		stats.CPU = cpuTime() - cpuStart
	}

	var warm *encoding
	for n := startN; n <= opts.MaxStates; {
		pf := buildPortfolio(n, warm)
		warm = nil
		refinements := resumeRefinements
		resumeRefinements = 0
		bumped := false
		for !bumped {
			// Round boundary: the portfolio state is a pure function of
			// (n, segments, anchored, blocked), so this is the moment
			// the search can be snapshotted and later resumed
			// byte-identically. The hook runs before the round's solver
			// call is counted, so resumed counters line up.
			if opts.Checkpoint != nil {
				err := opts.Checkpoint(&CheckpointState{
					N:            n,
					Refinements:  refinements,
					AcceptWindow: acceptWindow,
					Blocked:      copyInts(blocked),
					Segments:     copyInts(segments),
					Anchored:     append([]bool(nil), anchored...),
					Stats:        stats,
				})
				if err != nil {
					finish()
					return &Result{Stats: stats}, err
				}
			}
			if opts.Context != nil {
				if err := opts.Context.Err(); err != nil {
					finish()
					return &Result{Stats: stats}, fmt.Errorf("learn: %w", err)
				}
			}
			if !deadline.IsZero() && time.Now().After(deadline) {
				finish()
				return &Result{Stats: stats}, ErrTimeout
			}
			stats.SolverCalls++
			cSolves.Add(1)
			var solveSpan pipeline.SpanID
			if tr.Enabled() {
				solveSpan = tr.Start(opts.TraceSpan, "solve",
					pipeline.Int("n", int64(n)),
					pipeline.Int("segments", int64(len(segments))))
			}
			before := stats
			t0 := time.Now()
			status, capUnsat := pf.solve(deadline)
			hSolveNS.Since(t0)
			tel.Prof().Observe("solve", time.Since(t0))
			pf.addStats(&stats)
			if tr.Enabled() {
				tr.End(solveSpan,
					pipeline.Str("status", status.String()),
					pipeline.Str("winner", pf.winner),
					pipeline.Int("spec_core", int64(pf.specCore)),
					pipeline.Int("conflicts", stats.SATConflicts-before.SATConflicts),
					pipeline.Int("decisions", stats.SATDecisions-before.SATDecisions),
					pipeline.Int("propagations", stats.SATPropagations-before.SATPropagations))
			}
			if status == sat.Unknown {
				finish()
				return &Result{Stats: stats}, ErrBudgetExceeded
			}
			if status == sat.Unsat {
				// No n-state automaton: escalate. When the
				// speculative member proved its unrestricted
				// capacity unsatisfiable too, n+1 is already
				// settled and the search skips to n+2, promoting
				// the speculative solver as a warm start
				// otherwise.
				next := n + 1
				if capUnsat {
					next = n + 2
				}
				warm = pf.takeWarm(next)
				n = next
				bumped = true
				continue
			}
			t0 = time.Now()
			m, probes := pf.canonicalModel(symbols)
			hCanonNS.Since(t0)
			cCanonSolves.Add(int64(probes))

			// Compliance check (Algorithm 1 lines 38–45).
			invalid := invalidSequences(m, validGrams, symID, l)
			if len(invalid) > 0 {
				refinements++
				stats.Refinements++
				cGramsBlocked.Add(int64(len(invalid)))
				if tr.Enabled() {
					tr.Event(opts.TraceSpan, "compliance",
						pipeline.Int("n", int64(n)),
						pipeline.Int("grams_blocked", int64(len(invalid))))
				}
				if refinements > opts.MaxRefinements {
					return nil, fmt.Errorf("learn: more than %d refinements at N=%d", opts.MaxRefinements, n)
				}
				blocked = append(blocked, invalid...)
				if opts.ScratchRefinement {
					// Pre-incremental behaviour: re-encode with the
					// blocking clauses instead of extending the live
					// solvers.
					pf = buildPortfolio(n, nil)
				} else {
					for _, g := range invalid {
						pf.blockGram(g)
					}
				}
				continue
			}

			// Acceptance refinement, over every input sequence.
			rt, k := -1, -1
			for t, s := range seqs {
				if pos := s.firstReject(m, symbols); pos >= 0 {
					rt, k = t, pos
					break
				}
			}
			if rt < 0 {
				stats.Segments = len(segments)
				stats.FinalStates = n
				finish()
				if opts.retain != nil {
					// Hand the live solver state to the Live engine;
					// nothing below aliases it after this return.
					*opts.retain = searchRetained{
						pf:           pf,
						n:            n,
						acceptWindow: acceptWindow,
						blocked:      blocked,
						segments:     segments,
						anchored:     anchored,
						numSyms:      len(symbols),
					}
				}
				return &Result{Automaton: m, AcceptsInput: true, Stats: stats}, nil
			}
			stats.AcceptRefinements++
			if stats.AcceptRefinements > opts.MaxRefinements {
				return nil, fmt.Errorf("learn: more than %d acceptance refinements at N=%d", opts.MaxRefinements, n)
			}
			seq := seqs[rt]
			var idx int
			var added, anchorUp bool
			for {
				lo := k + 1 - acceptWindow
				if lo < 0 {
					lo = 0
				}
				idx, added, anchorUp = recordSegment32(seq.expand(lo, k+1), lo == 0)
				if added || anchorUp {
					break
				}
				// The window is already constrained; widen it.
				if acceptWindow > 2*maxSeqLen {
					// Unreachable: an anchored full prefix
					// forces the run past k.
					return nil, fmt.Errorf("learn: acceptance refinement stuck at position %d", k)
				}
				acceptWindow *= 2
			}
			if added {
				cSegmentsAdded.Add(1)
			}
			if tr.Enabled() {
				tr.Event(opts.TraceSpan, "acceptance",
					pipeline.Int("n", int64(n)),
					pipeline.Int("reject_pos", int64(k)),
					pipeline.Bool("segment_added", added))
			}
			if opts.ScratchRefinement {
				// Pre-incremental behaviour: discard the live
				// solvers and re-encode from scratch.
				pf = buildPortfolio(n, nil)
				refinements = 0
			} else if added {
				pf.addSegment(segments[idx], anchored[idx])
			} else {
				pf.anchorSegment(idx)
			}
		}
	}
	stats.Duration = time.Since(start)
	stats.CPU = cpuTime() - cpuStart
	return &Result{Stats: stats}, fmt.Errorf("%w (max %d states, %d segments)", ErrNoAutomaton, opts.MaxStates, len(segments))
}
