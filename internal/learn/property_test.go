package learn

import (
	"errors"
	"math/rand"
	"reflect"
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

// TestPaperInvariantsSerialAndScratch runs the two invariants over
// randomized small synthetic sequences, extending the live solver and
// rebuilding it after each refinement.
func TestPaperInvariantsSerialAndScratch(t *testing.T) {
	modes := []struct {
		name string
		opts Options
	}{
		{"serial", Options{Segmented: true, MaxStates: 32}},
		{"serial-scratch", Options{Segmented: true, MaxStates: 32, scratchRefinement: true}},
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

// TestIncrementalMatchesScratch: extending the live solver on
// acceptance refinement must yield exactly the automaton the scratch
// rebuild finds — same states, transitions, and start state.
func TestIncrementalMatchesScratch(t *testing.T) {
	for _, P := range propertySequences() {
		inc, err := GenerateModelSeqs(seqsOf(P), Options{Segmented: true, MaxStates: 32})
		if err != nil {
			t.Fatalf("incremental (%v): %v", P, err)
		}
		scr, err := GenerateModelSeqs(seqsOf(P), Options{Segmented: true, MaxStates: 32, scratchRefinement: true})
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

// counterEncoding encodes every 3-window of the counter pattern at n
// states, with the conflict budget checked after every conflict: the
// budget is only checked between restart segments, so those shrink to
// one conflict too — otherwise the first segment alone (default 100
// conflicts) completes a small proof.
func counterEncoding(n int) (enc *encoding, segments [][]int) {
	symID := map[string]int{}
	var seq []int
	for _, s := range repeatPattern(10, 3) {
		id, ok := symID[s]
		if !ok {
			id = len(symID)
			symID[s] = id
		}
		seq = append(seq, id)
	}
	var anchored []bool
	for i := 0; i+3 <= len(seq); i++ {
		segments = append(segments, seq[i:i+3])
		anchored = append(anchored, i == 0)
	}
	enc = newEncoding(n, len(symID), segments, anchored, true, nil)
	enc.solver.RestartBase = 1
	return enc, segments
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
	enc, segments := counterEncoding(3)
	enc.blockGram(segments[0])
	if st := enc.solve(time.Now().Add(-time.Second)); st != sat.Unknown {
		t.Fatalf("expired deadline mid-solve returned %v, want Unknown", st)
	}
}

// TestCanonicalizeDeadline pins the same contract for the canonical
// walk: with an expired deadline a probe cut short surfaces as
// ErrBudgetExceeded — never as an unsatisfiable probe, which would fix
// a transition true and change the model — and with a deadline still
// ahead, probes resumed across one-conflict chunks reach the unbounded
// walk's relation.
func TestCanonicalizeDeadline(t *testing.T) {
	old := solveChunkConflicts
	solveChunkConflicts = 1
	defer func() { solveChunkConflicts = old }()

	walk := func(deadline time.Time) (*encoding, error) {
		t.Helper()
		enc, _ := counterEncoding(4)
		if st := enc.solve(time.Time{}); st != sat.Sat {
			t.Fatalf("counter windows at N=4: %v, want Sat", st)
		}
		_, err := enc.canonicalize(deadline)
		return enc, err
	}
	ref, err := walk(time.Time{})
	if err != nil {
		t.Fatalf("unbounded walk: %v", err)
	}
	chunked, err := walk(time.Now().Add(time.Hour))
	if err != nil {
		t.Fatalf("chunked walk: %v", err)
	}
	if !reflect.DeepEqual(chunked.rel, ref.rel) {
		t.Fatalf("chunked walk relation %v, unbounded %v", chunked.rel, ref.rel)
	}
	if _, err := walk(time.Now().Add(-time.Second)); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("walk past its deadline = %v, want ErrBudgetExceeded", err)
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
