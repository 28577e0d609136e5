package learn

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sat"
)

// propertySequences returns the inputs the mode-equivalence and
// invariant properties run over: the benchmark-shaped patterns
// (including the counter shape, the one known to exercise acceptance
// refinement) plus deterministic pseudo-random words.
func propertySequences() [][]string {
	seqs := [][]string{
		repeatPattern(10, 3),
		repeatPattern(4, 2),
		{"a", "b", "c", "a", "b", "c", "a", "b", "c", "a"},
		{"a", "a", "a", "a", "a", "a"},
	}
	r := rand.New(rand.NewSource(23))
	alphabets := [][]string{{"a", "b"}, {"x", "y", "z"}}
	for trial := 0; trial < 10; trial++ {
		alpha := alphabets[trial%len(alphabets)]
		n := 6 + r.Intn(10)
		P := make([]string, n)
		for i := range P {
			P[i] = alpha[r.Intn(len(alpha))]
		}
		seqs = append(seqs, P)
	}
	return seqs
}

// checkInvariants asserts the paper's two model invariants: every
// w-window of P is a path in the NFA, and no (state, predicate) pair
// has two successors.
func checkInvariants(t *testing.T, res *Result, P []string, w int) {
	t.Helper()
	if res.Automaton == nil {
		t.Fatal("nil automaton")
	}
	if !res.Automaton.IsDeterministic() {
		t.Errorf("a (state, predicate) pair has two successors:\n%s", res.Automaton)
	}
	if w > len(P) {
		w = len(P)
	}
	checkSegments(t, res, P, w)
}

// TestPaperInvariantsSerialAndPortfolio runs the two invariants over
// randomized small synthetic sequences in serial and portfolio modes.
func TestPaperInvariantsSerialAndPortfolio(t *testing.T) {
	modes := []struct {
		name string
		opts Options
	}{
		{"serial", Options{Segmented: true, MaxStates: 32}},
		{"serial-scratch", Options{Segmented: true, MaxStates: 32, ScratchRefinement: true}},
		{"portfolio", Options{Segmented: true, MaxStates: 32, Portfolio: 4, Workers: 4}},
	}
	for _, P := range propertySequences() {
		for _, mode := range modes {
			res, err := GenerateModelSeqs(seqsOf(P), mode.opts)
			if err != nil {
				t.Fatalf("%s (%v): %v", mode.name, P, err)
			}
			checkInvariants(t, res, P, 3)
			checkCompliance(t, res, P, 2)
			if !res.AcceptsInput {
				t.Errorf("%s (%v): rejects its own input", mode.name, P)
			}
		}
	}
}

// TestIncrementalMatchesScratch: extending the live solvers on
// acceptance refinement must yield exactly the automaton the scratch
// rebuild finds — same states, transitions, and start state.
func TestIncrementalMatchesScratch(t *testing.T) {
	for _, P := range propertySequences() {
		inc, err := GenerateModelSeqs(seqsOf(P), Options{Segmented: true, MaxStates: 32})
		if err != nil {
			t.Fatalf("incremental (%v): %v", P, err)
		}
		scr, err := GenerateModelSeqs(seqsOf(P), Options{Segmented: true, MaxStates: 32, ScratchRefinement: true})
		if err != nil {
			t.Fatalf("scratch (%v): %v", P, err)
		}
		if inc.Automaton.String() != scr.Automaton.String() {
			t.Errorf("input %v:\nincremental:\n%s\nscratch:\n%s", P, inc.Automaton, scr.Automaton)
		}
		if inc.Stats.FinalStates != scr.Stats.FinalStates {
			t.Errorf("input %v: incremental %d states, scratch %d",
				P, inc.Stats.FinalStates, scr.Stats.FinalStates)
		}
	}
}

// TestPortfolioDeterministicAcrossWorkers: for a fixed portfolio
// configuration the learned automaton, acceptance flag and final state
// count are identical for every worker count — the variants only ever
// contribute Unsat verdicts, which all members must agree on. Effort
// statistics (conflicts, solver calls) are scheduling-dependent and
// deliberately not compared.
func TestPortfolioDeterministicAcrossWorkers(t *testing.T) {
	for _, P := range propertySequences() {
		type outcome struct {
			auto    string
			states  int
			accepts bool
		}
		var ref *outcome
		for _, workers := range []int{1, 2, 8} {
			res, err := GenerateModelSeqs(seqsOf(P), Options{
				Segmented: true, MaxStates: 32, Portfolio: 4, Workers: workers,
			})
			if err != nil {
				t.Fatalf("workers=%d (%v): %v", workers, P, err)
			}
			got := &outcome{res.Automaton.String(), res.Stats.FinalStates, res.AcceptsInput}
			if ref == nil {
				ref = got
				continue
			}
			if *got != *ref {
				t.Errorf("workers=%d diverged on %v:\n%s\nwant:\n%s", workers, P, got.auto, ref.auto)
			}
		}
	}
}

// TestPortfolioMatchesSerialSemantics: portfolio and serial modes
// learn the identical automaton. Canonical model extraction makes this
// exact: the lex-least transition relation is a function of the
// constraint set, not of chunking, learned clauses, or which member
// raced ahead.
func TestPortfolioMatchesSerialSemantics(t *testing.T) {
	for _, P := range propertySequences() {
		serial, err := GenerateModelSeqs(seqsOf(P), Options{Segmented: true, MaxStates: 32})
		if err != nil {
			t.Fatalf("serial (%v): %v", P, err)
		}
		pf, err := GenerateModelSeqs(seqsOf(P), Options{Segmented: true, MaxStates: 32, Portfolio: 4, Workers: 4})
		if err != nil {
			t.Fatalf("portfolio (%v): %v", P, err)
		}
		if serial.Automaton.String() != pf.Automaton.String() {
			t.Errorf("input %v:\nserial:\n%s\nportfolio:\n%s", P, serial.Automaton, pf.Automaton)
		}
		if serial.Stats.FinalStates != pf.Stats.FinalStates {
			t.Errorf("input %v: serial %d states, portfolio %d",
				P, serial.Stats.FinalStates, pf.Stats.FinalStates)
		}
		if serial.AcceptsInput != pf.AcceptsInput {
			t.Errorf("input %v: acceptance disagrees", P)
		}
	}
}

// TestEncodingSolveDeadlineUnknown pins the deadline contract at the
// encoding level: an expired deadline mid-solve must surface as
// Unknown — never as Unsat, which would wrongly bump N.
func TestEncodingSolveDeadlineUnknown(t *testing.T) {
	old := solveChunkConflicts
	solveChunkConflicts = 1
	defer func() { solveChunkConflicts = old }()

	// The counter pattern at N=3 with its own first window blocked is
	// UNSAT (the anchored segment must be embedded, yet no path may
	// realise it) and the proof needs several conflicts, so the first
	// one-conflict chunk cannot finish.
	P := repeatPattern(10, 3)
	symID := map[string]int{}
	var seq []int
	for _, s := range P {
		id, ok := symID[s]
		if !ok {
			id = len(symID)
			symID[s] = id
		}
		seq = append(seq, id)
	}
	var segments [][]int
	var anchored []bool
	for i := 0; i+3 <= len(seq); i++ {
		segments = append(segments, seq[i:i+3])
		anchored = append(anchored, i == 0)
	}
	enc := newEncoding(3, 3, len(symID), segments, anchored, true)
	enc.blockGram(segments[0])
	// The conflict budget is only checked between restart segments, so
	// shrink those too — otherwise the first segment alone (default 100
	// conflicts) completes the ~5-conflict proof.
	enc.solver.RestartBase = 1
	if st := enc.solve(time.Now().Add(-time.Second), nil); st != sat.Unknown {
		t.Fatalf("expired deadline mid-solve returned %v, want Unknown", st)
	}
	var stop atomic.Bool
	stop.Store(true)
	if st := enc.solve(time.Time{}, &stop); st != sat.Unknown {
		t.Fatalf("stopped solve returned %v, want Unknown", st)
	}
}

// TestBudgetExceededNearZeroDeadline is the end-to-end regression for
// the same contract: with a deadline that cannot be met the learner
// must fail with an ErrTimeout-class error and no automaton — not
// report a wrong model at an inflated N.
func TestBudgetExceededNearZeroDeadline(t *testing.T) {
	old := solveChunkConflicts
	solveChunkConflicts = 1
	defer func() { solveChunkConflicts = old }()

	for _, timeout := range []time.Duration{time.Nanosecond, 200 * time.Microsecond} {
		res, err := GenerateModelSeqs(seqsOf(repeatPattern(10, 3)), Options{Segmented: true, Timeout: timeout})
		if err == nil {
			t.Fatalf("timeout %v: expected an error, got %d-state automaton", timeout, res.Stats.FinalStates)
		}
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("timeout %v: error %v is not ErrTimeout-class", timeout, err)
		}
		if res == nil || res.Automaton != nil {
			t.Fatalf("timeout %v: expected stats-only result, got %+v", timeout, res)
		}
	}
	// The two sentinels stay distinguishable: ErrBudgetExceeded wraps
	// ErrTimeout, not the other way round.
	if !errors.Is(ErrBudgetExceeded, ErrTimeout) {
		t.Error("ErrBudgetExceeded must wrap ErrTimeout")
	}
	if errors.Is(ErrTimeout, ErrBudgetExceeded) {
		t.Error("ErrTimeout must not match ErrBudgetExceeded")
	}
}

// TestPortfolioWithTimeout: the portfolio path honours deadlines too.
func TestPortfolioWithTimeout(t *testing.T) {
	res, err := GenerateModelSeqs(seqsOf(repeatPattern(10, 3)), Options{
		Segmented: true, Timeout: time.Nanosecond, Portfolio: 4, Workers: 4,
	})
	if err == nil || !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout-class", err)
	}
	if res.Automaton != nil {
		t.Fatal("automaton returned despite timeout")
	}
}
