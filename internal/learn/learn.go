// Package learn implements the model-construction algorithm of the
// paper (Algorithm 1, procedure GenerateModel): given the predicate
// sequence P obtained from a trace, it searches for the smallest
// N-state automaton that
//
//   - contains every (unique) sliding-window segment of P as a
//     transition sequence,
//   - has at most one successor per (state, predicate) pair (the
//     paper's wrong_transition constraint), and
//   - passes the compliance check: every length-l transition sequence
//     realisable in the automaton is a contiguous subsequence of P.
//
// The paper encodes the search as a C program and extracts the
// automaton from a CBMC counterexample; here the identical hypothesis
// is encoded directly in CNF (see encode.go) and solved with the
// internal/sat CDCL solver. The search starts at N = 2 (or
// Options.StartStates, to reproduce the paper's Table I methodology)
// and increments N whenever the constraints are unsatisfiable, so the
// first model found is state-minimal. Compliance violations are turned
// into blocking clauses and the search repeats — the refinement loop
// of Algorithm 1 lines 38–48.
package learn

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/automaton"
	"repro/internal/pipeline"
)

// Options tunes GenerateModelSeqs.
type Options struct {
	// Window is the segmentation window w over the predicate
	// sequence. Zero means 3, the paper's choice.
	Window int
	// ComplianceLen is the transition-sequence length l checked in
	// the compliance phase. Zero means 2, the paper's choice.
	ComplianceLen int
	// StartStates is the initial N. Zero means 2. Table I starts
	// each run at the known final N for a fair segmented
	// vs. non-segmented comparison.
	StartStates int
	// MaxStates caps N; the search fails with ErrNoAutomaton beyond
	// it. Zero means 64.
	MaxStates int
	// Segmented selects the paper's segmentation strategy: only the
	// unique windows of P constrain the search. Disabled, the whole
	// of P is one segment — the non-segmented baseline of Table I
	// and Fig 7.
	Segmented bool
	// Timeout bounds the total search wall-clock time; zero means
	// none. Exceeding it returns ErrTimeout (the paper's ">16 hours"
	// entries).
	Timeout time.Duration
	// MaxRefinements caps compliance-refinement iterations per N.
	// Zero means 10000.
	MaxRefinements int
	// NoSymmetryBreaking disables the state-ordering symmetry break
	// in the encoding (for the ablation benchmarks; the UNSAT
	// escalation proofs are substantially slower without it).
	NoSymmetryBreaking bool
	// Portfolio races this many solver configurations per solve
	// (bounded by the built-in table: canonical, speculative N+1,
	// restart and decay variants). Zero or one selects the serial
	// path. The learned automaton is identical for every Portfolio
	// and Workers setting; see portfolio.go for the determinism rule.
	Portfolio int
	// Workers bounds the portfolio's concurrency. Zero means one per
	// CPU; one runs the canonical member only.
	Workers int
	// ScratchRefinement rebuilds the encoding from scratch after each
	// compliance or acceptance refinement instead of extending the
	// live solvers — the pre-incremental behaviour, kept for
	// equivalence testing and ablation benchmarks. Canonical model
	// extraction makes the learned automaton identical either way.
	ScratchRefinement bool
	// Context cancels the search between solver rounds (signal
	// handling; a round in flight finishes first). Nil means never
	// cancelled.
	Context context.Context
	// Checkpoint, when non-nil, is called at the top of every solver
	// round with a snapshot of the refinement state, before the
	// round's solver call is counted. A non-nil return aborts the
	// search with that error. The snapshot is a deep copy and may be
	// retained.
	Checkpoint func(*CheckpointState) error
	// Resume restores a previously checkpointed refinement state: the
	// search starts at the snapshot's N with its segments, blocked
	// grams, acceptance window and counters, instead of segmenting
	// afresh and starting at StartStates. The input sequences must be
	// the ones the snapshot was taken from (internal/checkpoint
	// enforces this with an input hash).
	Resume *CheckpointState
	// Telemetry records solver-call counters, latency histograms, and
	// compliance/acceptance events into the run's registry and trace.
	// Nil disables all recording; telemetry never changes results.
	Telemetry *pipeline.Telemetry
	// TraceSpan parents the per-round solve spans and refinement
	// events when Telemetry carries a tracer.
	TraceSpan pipeline.SpanID

	// retain, when non-nil, receives the live solver state of a
	// successful search (portfolio, level, segment/blocked tables) so
	// the Live engine can keep extending it incrementally instead of
	// relearning from scratch. Unexported: only live.go sets it.
	retain *searchRetained
}

// searchRetained is the solver state GenerateModelSeqs leaves behind
// for live extension: everything needed to continue the refinement
// loop at the found level n when the input sequence grows.
type searchRetained struct {
	pf           *portfolio
	n            int
	acceptWindow int
	blocked      [][]int
	segments     [][]int
	anchored     []bool
	numSyms      int
}

func (o Options) withDefaults() Options {
	if o.Window == 0 {
		o.Window = 3
	}
	if o.ComplianceLen == 0 {
		o.ComplianceLen = 2
	}
	if o.StartStates == 0 {
		o.StartStates = 2
	}
	if o.MaxStates == 0 {
		o.MaxStates = 64
	}
	if o.MaxRefinements == 0 {
		o.MaxRefinements = 10000
	}
	return o
}

// Stats reports search effort.
type Stats struct {
	Segments          int // unique segments constraining the search
	SolverCalls       int
	Refinements       int // compliance violations blocked
	AcceptRefinements int // acceptance windows added
	FinalStates       int
	SATConflicts      int64
	SATDecisions      int64
	SATPropagations   int64
	SATLearned        int64 // clauses learned (and kept across solves)
	Duration          time.Duration
	// CPU is the process CPU time consumed by the search. With the
	// serial solver it tracks Duration; a portfolio on several workers
	// spends more CPU than wall time.
	CPU time.Duration
}

// Result is a learned automaton plus bookkeeping.
type Result struct {
	Automaton *automaton.NFA
	// AcceptsInput reports whether the automaton accepts the whole
	// input sequence P from its initial state. The encoding
	// guarantees every segment is embedded; acceptance of the full
	// sequence additionally needs the segment paths to glue, which
	// the state-minimal solution does in all benchmark systems and
	// which this flag verifies.
	AcceptsInput bool
	Stats        Stats
}

// ErrNoAutomaton is returned when no automaton within MaxStates
// satisfies the constraints.
var ErrNoAutomaton = errors.New("learn: no automaton within state bound")

// ErrTimeout is returned when Options.Timeout elapses mid-search.
var ErrTimeout = errors.New("learn: timeout")

// ErrBudgetExceeded is returned when the SAT solver runs out of budget
// mid-solve — the deadline expired inside a solver call rather than
// between refinement iterations. It must never be conflated with
// UNSAT: treating an aborted solve as "no N-state automaton" would
// silently bump N and report a wrong, non-minimal model. It wraps
// ErrTimeout, so errors.Is(err, ErrTimeout) continues to hold for
// callers that only care that the search ran out of time.
var ErrBudgetExceeded = fmt.Errorf("learn: solver budget exceeded mid-solve: %w", ErrTimeout)

// invalidSequences returns the l-grams realisable in m that are not
// contiguous subsequences of P, as symbol-id words (S_l − P_l).
func invalidSequences(m *automaton.NFA, validGrams map[string]bool, symID map[string]int, l int) [][]int {
	var out [][]int
	var buf []byte
	for _, word := range m.SymbolSequences(l) {
		ids := make([]int, len(word))
		for i, s := range word {
			ids[i] = symID[s]
		}
		buf = appendIntsKey(buf[:0], ids)
		if !validGrams[string(buf)] {
			out = append(out, ids)
		}
	}
	return out
}

// intsKey encodes a symbol-id word as the little-endian concatenation
// of its ids — a compact, fixed-width map key. The append variants
// below feed a reused buffer so hot-loop lookups via m[string(buf)]
// never allocate (the compiler elides the conversion); a string is
// materialised only when a key is actually inserted.
func intsKey(xs []int) string {
	return string(appendIntsKey(make([]byte, 0, 4*len(xs)), xs))
}

func appendIntsKey(b []byte, xs []int) []byte {
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	return b
}

func appendIntsKey32(b []byte, xs []int32) []byte {
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	return b
}
