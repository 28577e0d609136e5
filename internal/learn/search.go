// The refinement loop of Algorithm 1 (lines 33–48), shared by batch
// and live learning: generate runs it for N = start…max, and
// Live.extend continues the search its last re-minimization built at
// the N that search found.
package learn

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/automaton"
	"repro/internal/pipeline"
	"repro/internal/sat"
)

// errNeedGrow reports that the constraints are unsatisfiable at the
// search's state count: the model needs more states.
var errNeedGrow = errors.New("learn: unsatisfiable at this state count")

// maxRefinements caps the compliance refinements, and separately the
// acceptance refinements, made at one N (for Live, in one revision).
const maxRefinements = 10000

// search is one model search over a set of RLE sequences: the segment
// table the encoding is built from (base windows plus acceptance
// windows, with anchor flags, in first-record order), the blocked
// l-grams, the acceptance-refinement window, the encoding at the
// current N, and the telemetry handles, resolved once.
type search struct {
	opts       Options
	symbols    []string
	symID      map[string]int
	seqs       []*rleSeq
	validGrams map[string]bool // the l-grams of the sequences (P_l)
	deadline   time.Time       // zero: none

	segments [][]int
	anchored []bool
	segIndex map[string]int
	keyBuf   []byte // reused; lookups via string(keyBuf) don't allocate

	blocked      [][]int
	blockedSet   map[string]bool
	acceptWindow int

	enc   *encoding
	stats Stats

	tr                          *pipeline.Tracer
	cSolves, cGramsBlocked      *pipeline.Counter64
	cSegmentsAdded, cCanonSolve *pipeline.Counter64
	hSolveNS, hCanonNS          *pipeline.Histogram
}

func newSearch(opts Options, symbols []string, symID map[string]int, seqs []*rleSeq) *search {
	tel := opts.Telemetry
	return &search{
		opts:           opts,
		symbols:        symbols,
		symID:          symID,
		seqs:           seqs,
		validGrams:     map[string]bool{},
		segIndex:       map[string]int{},
		blockedSet:     map[string]bool{},
		tr:             tel.Trace(),
		cSolves:        tel.Count("solver_calls_total"),
		cGramsBlocked:  tel.Count("learn_grams_blocked_total"),
		cSegmentsAdded: tel.Count("learn_segments_added_total"),
		cCanonSolve:    tel.Count("learn_canonical_solves_total"),
		hSolveNS:       tel.Hist("solver_call_ns", "ns"),
		hCanonNS:       tel.Hist("learn_canonical_ns", "ns"),
	}
}

// record adds a window to the segment table unless it is already
// there. It returns the window's index, whether it was added, and
// whether an existing unanchored entry became anchored.
func (s *search) record(win []int32, anchor bool) (idx int, added, anchorUp bool) {
	s.keyBuf = appendIntsKey32(s.keyBuf[:0], win)
	if i, ok := s.segIndex[string(s.keyBuf)]; ok {
		if anchor && !s.anchored[i] {
			s.anchored[i] = true
			return i, false, true
		}
		return i, false, false
	}
	seg := make([]int, len(win))
	for i, x := range win {
		seg[i] = int(x)
	}
	s.segIndex[string(s.keyBuf)] = len(s.segments)
	s.segments = append(s.segments, seg)
	s.anchored = append(s.anchored, anchor)
	return len(s.segments) - 1, true, false
}

// block adds grams to the blocked set; the caller constrains the
// encoding.
func (s *search) block(grams [][]int) {
	for _, g := range grams {
		s.blocked = append(s.blocked, g)
		s.blockedSet[intsKey(g)] = true
	}
}

// encode builds the encoding at n states over the segment table and
// blocked grams, on spare when non-nil. A scratch refinement passes
// the solver of the encoding it replaces, and each state count the
// one of the level below, so the search pays for solver memory once.
func (s *search) encode(n int, spare *sat.Solver) {
	s.enc = newEncoding(n, len(s.symbols), s.segments, s.anchored, !s.opts.NoSymmetryBreaking, spare)
	for _, g := range s.blocked {
		s.enc.blockGram(g)
	}
}

// refine runs the refinement loop at the encoding's state count:
// solve, extract the canonical model, block the l-grams it realises
// that the input lacks (compliance), add the window of the input
// where its run dead-ends (acceptance), and solve again until a model
// is both compliant and accepting. It returns that model, errNeedGrow
// when no model exists at this N, or an error that ends the search.
// Both refinement caps count per call.
//
// Acceptance refinement: embedding every w-window does not by itself
// make the automaton accept P — the solver can return "parity" models
// whose windows all embed somewhere but whose single deterministic run
// dead-ends. Any automaton that accepts P embeds every sub-window of
// every length, so when the run dead-ends at position k the window of
// P ending at k+1 becomes an extra (deduplicated) path constraint,
// doubling the window length when the same content recurs. Windows
// that reach back to position 0 are anchored at the initial state, so
// the loop always makes progress; in the worst case the constraint
// grows into the full prefix and the search degenerates soundly into
// the non-segmented encoding. Repeating trace patterns are still
// constrained only once, preserving the segmentation speedup.
func (s *search) refine() (*automaton.NFA, error) {
	n := s.enc.n
	tr := s.tr
	refinements, acceptRefinements := 0, 0
	for {
		if s.opts.Context != nil {
			if err := s.opts.Context.Err(); err != nil {
				return nil, fmt.Errorf("learn: %w", err)
			}
		}
		if !s.deadline.IsZero() && time.Now().After(s.deadline) {
			return nil, ErrTimeout
		}
		s.stats.SolverCalls++
		s.cSolves.Add(1)
		var solveSpan pipeline.SpanID
		if tr.Enabled() {
			solveSpan = tr.Start(s.opts.TraceSpan, "solve",
				pipeline.Int("n", int64(n)),
				pipeline.Int("segments", int64(len(s.segments))))
		}
		before := s.stats
		t0 := time.Now()
		status := s.enc.solve(s.deadline)
		s.hSolveNS.Since(t0)
		s.opts.Telemetry.Prof().Observe("solve", time.Since(t0))
		s.enc.addStats(&s.stats)
		if tr.Enabled() {
			tr.End(solveSpan,
				pipeline.Str("status", status.String()),
				pipeline.Int("conflicts", s.stats.SATConflicts-before.SATConflicts),
				pipeline.Int("decisions", s.stats.SATDecisions-before.SATDecisions),
				pipeline.Int("propagations", s.stats.SATPropagations-before.SATPropagations))
		}
		if status == sat.Unknown {
			return nil, ErrBudgetExceeded
		}
		if status == sat.Unsat {
			return nil, errNeedGrow
		}
		t0 = time.Now()
		probes, err := s.enc.canonicalize(s.deadline)
		s.enc.addStats(&s.stats)
		s.cCanonSolve.Add(int64(probes))
		if err != nil {
			return nil, err
		}
		m := s.enc.extract(s.symbols)
		s.hCanonNS.Since(t0)

		// Compliance check (Algorithm 1 lines 38–45).
		if invalid := invalidSequences(m, s.validGrams, s.symID, s.opts.ComplianceLen); len(invalid) > 0 {
			refinements++
			s.stats.Refinements++
			s.cGramsBlocked.Add(int64(len(invalid)))
			if tr.Enabled() {
				tr.Event(s.opts.TraceSpan, "compliance",
					pipeline.Int("n", int64(n)),
					pipeline.Int("grams_blocked", int64(len(invalid))))
			}
			if refinements > maxRefinements {
				return nil, fmt.Errorf("learn: more than %d refinements at N=%d", maxRefinements, n)
			}
			s.block(invalid)
			if s.opts.scratchRefinement {
				s.encode(n, s.enc.solver)
			} else {
				for _, g := range invalid {
					s.enc.blockGram(g)
				}
			}
			continue
		}

		// Acceptance check, over every input sequence.
		var seq *rleSeq
		k := -1
		for _, q := range s.seqs {
			if _, k = q.walk(m, s.symbols); k >= 0 {
				seq = q
				break
			}
		}
		if seq == nil {
			s.stats.Segments = len(s.segments)
			s.stats.FinalStates = n
			return m, nil
		}
		acceptRefinements++
		s.stats.AcceptRefinements++
		if acceptRefinements > maxRefinements {
			return nil, fmt.Errorf("learn: more than %d acceptance refinements at N=%d", maxRefinements, n)
		}
		var idx int
		var added, anchorUp bool
		for {
			lo := max(k+1-s.acceptWindow, 0)
			idx, added, anchorUp = s.record(seq.expand(lo, k+1), lo == 0)
			if added || anchorUp {
				break
			}
			// The window is already constrained; widen it.
			if s.acceptWindow > 2*seq.total {
				// Unreachable: an anchored full prefix forces the
				// run past k.
				return nil, fmt.Errorf("learn: acceptance refinement stuck at position %d", k)
			}
			s.acceptWindow *= 2
		}
		if added {
			s.cSegmentsAdded.Add(1)
		}
		if tr.Enabled() {
			tr.Event(s.opts.TraceSpan, "acceptance",
				pipeline.Int("n", int64(n)),
				pipeline.Int("reject_pos", int64(k)),
				pipeline.Bool("segment_added", added))
		}
		switch {
		case s.opts.scratchRefinement:
			s.encode(n, s.enc.solver)
			refinements = 0
		case added:
			s.enc.addSegment(s.segments[idx], s.anchored[idx])
		default:
			s.enc.anchorSegment(idx)
		}
	}
}
