package learn

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// repeatPattern builds the counter-style sequence (A^k B C^k D)^reps A^k.
func repeatPattern(k, reps int) []string {
	var p []string
	for r := 0; r < reps; r++ {
		for i := 0; i < k; i++ {
			p = append(p, "up")
		}
		p = append(p, "peak")
		for i := 0; i < k; i++ {
			p = append(p, "down")
		}
		p = append(p, "low")
	}
	for i := 0; i < k; i++ {
		p = append(p, "up")
	}
	return p
}

// checkCompliance asserts S_l ⊆ P_l on the result.
func checkCompliance(t *testing.T, res *Result, P []string, l int) {
	t.Helper()
	valid := map[string]bool{}
	for i := 0; i+l <= len(P); i++ {
		valid[strings.Join(P[i:i+l], "\x00")] = true
	}
	for _, w := range res.Automaton.SymbolSequences(l) {
		if !valid[strings.Join(w, "\x00")] {
			t.Errorf("automaton realises invalid sequence %v", w)
		}
	}
}

// checkSegments asserts every w-window of P labels a path somewhere.
func checkSegments(t *testing.T, res *Result, P []string, w int) {
	t.Helper()
	for i := 0; i+w <= len(P); i++ {
		if !res.Automaton.AcceptsAnywhere(P[i : i+w]) {
			t.Errorf("window %v not embedded", P[i:i+w])
		}
	}
}

func TestCounterShape(t *testing.T) {
	P := repeatPattern(10, 3)
	res, err := GenerateModelSeqs(seqsOf(P), Options{Segmented: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats.FinalStates; got != 4 {
		t.Errorf("states = %d, want 4\n%s", got, res.Automaton)
	}
	if !res.Automaton.IsDeterministic() {
		t.Error("automaton not deterministic")
	}
	if !res.AcceptsInput {
		t.Error("automaton rejects its own input sequence")
	}
	checkCompliance(t, res, P, 2)
	checkSegments(t, res, P, 3)
}

func TestThreeCycle(t *testing.T) {
	var P []string
	for i := 0; i < 12; i++ {
		P = append(P, []string{"a", "b", "c"}[i%3])
	}
	res, err := GenerateModelSeqs(seqsOf(P), Options{Segmented: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FinalStates != 3 {
		t.Errorf("states = %d, want 3\n%s", res.Stats.FinalStates, res.Automaton)
	}
	if !res.AcceptsInput {
		t.Error("rejects input")
	}
	checkCompliance(t, res, P, 2)
}

func TestSingleSymbolLoop(t *testing.T) {
	P := []string{"a", "a", "a", "a", "a", "a"}
	res, err := GenerateModelSeqs(seqsOf(P), Options{Segmented: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AcceptsInput {
		t.Error("rejects input")
	}
	// The search starts at N = 2, so the solver may return either the
	// one-state self-loop or an equally valid two-state alternation;
	// both are deterministic, compliant and accept a^k.
	if !res.Automaton.IsDeterministic() {
		t.Error("not deterministic")
	}
	if got := res.Automaton.NumTransitions(); got > 2 {
		t.Errorf("transitions = %d, want at most 2", got)
	}
	checkCompliance(t, res, P, 2)
}

func TestNonSegmentedAgrees(t *testing.T) {
	P := repeatPattern(4, 2)
	seg, err := GenerateModelSeqs(seqsOf(P), Options{Segmented: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := GenerateModelSeqs(seqsOf(P), Options{Segmented: false})
	if err != nil {
		t.Fatal(err)
	}
	if seg.Stats.FinalStates > full.Stats.FinalStates {
		t.Errorf("segmented needs more states (%d) than full trace (%d)",
			seg.Stats.FinalStates, full.Stats.FinalStates)
	}
	if !full.AcceptsInput {
		t.Error("full-trace automaton rejects its input (path constraint violated)")
	}
	checkCompliance(t, full, P, 2)
	checkSegments(t, seg, P, 3)
	// The non-segmented problem is at least as constrained.
	if full.Stats.Segments != 1 {
		t.Errorf("full-trace mode has %d segments, want 1", full.Stats.Segments)
	}
}

func TestComplianceRefinementTriggers(t *testing.T) {
	// a b a b ... a c: the c tail forces refinements — a 2-state
	// ab-cycle admits sequences like "ca" or "cb" that never occur.
	var P []string
	for i := 0; i < 8; i++ {
		P = append(P, []string{"a", "b"}[i%2])
	}
	P = append(P, "a", "c", "a", "b", "a", "c")
	res, err := GenerateModelSeqs(seqsOf(P), Options{Segmented: true})
	if err != nil {
		t.Fatal(err)
	}
	checkCompliance(t, res, P, 2)
	checkSegments(t, res, P, 3)
	if !res.Automaton.IsDeterministic() {
		t.Error("not deterministic")
	}
}

func TestMaxStates(t *testing.T) {
	P := []string{"a", "b", "a", "c"}
	_, err := GenerateModelSeqs(seqsOf(P), Options{Segmented: true, MaxStates: 2})
	if !errors.Is(err, ErrNoAutomaton) {
		t.Errorf("err = %v, want ErrNoAutomaton", err)
	}
}

func TestTimeout(t *testing.T) {
	P := repeatPattern(50, 5)
	_, err := GenerateModelSeqs(seqsOf(P), Options{Segmented: false, Timeout: time.Nanosecond})
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

func TestEmptyInput(t *testing.T) {
	if _, err := GenerateModelSeqs(seqsOf(nil), Options{}); err == nil {
		t.Error("empty input accepted")
	}
}

func TestShortInput(t *testing.T) {
	// Input shorter than the window: the window clamps to the
	// sequence length.
	res, err := GenerateModelSeqs(seqsOf([]string{"a", "b"}), Options{Segmented: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AcceptsInput {
		t.Error("rejects input")
	}
}

func TestStartStates(t *testing.T) {
	P := repeatPattern(5, 2)
	res, err := GenerateModelSeqs(seqsOf(P), Options{Segmented: true, StartStates: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FinalStates != 4 {
		t.Errorf("states = %d, want 4", res.Stats.FinalStates)
	}
}

// TestPropertyRandomWords: on random words over small alphabets, the
// learner must terminate with a deterministic automaton embedding
// every window and passing compliance.
func TestPropertyRandomWords(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	alphabets := [][]string{
		{"a", "b"},
		{"a", "b", "c"},
	}
	for trial := 0; trial < 25; trial++ {
		alpha := alphabets[trial%len(alphabets)]
		n := 6 + r.Intn(10)
		P := make([]string, n)
		for i := range P {
			P[i] = alpha[r.Intn(len(alpha))]
		}
		res, err := GenerateModelSeqs(seqsOf(P), Options{Segmented: true, MaxStates: 32})
		if err != nil {
			t.Fatalf("trial %d (%v): %v", trial, P, err)
		}
		if !res.Automaton.IsDeterministic() {
			t.Fatalf("trial %d (%v): nondeterministic", trial, P)
		}
		checkCompliance(t, res, P, 2)
		checkSegments(t, res, P, min(3, len(P)))
		// Segmented never needs more states than non-segmented.
		full, err := GenerateModelSeqs(seqsOf(P), Options{Segmented: false, MaxStates: 32})
		if err != nil {
			t.Fatalf("trial %d full (%v): %v", trial, P, err)
		}
		if res.Stats.FinalStates > full.Stats.FinalStates {
			t.Errorf("trial %d (%v): segmented %d states > full %d states",
				trial, P, res.Stats.FinalStates, full.Stats.FinalStates)
		}
	}
}

func TestComplianceLenL3(t *testing.T) {
	P := repeatPattern(6, 3)
	res, err := GenerateModelSeqs(seqsOf(P), Options{Segmented: true, Window: 4, ComplianceLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkCompliance(t, res, P, 3)
	checkSegments(t, res, P, 4)
}

func TestStatsPopulated(t *testing.T) {
	P := repeatPattern(8, 2)
	res, err := GenerateModelSeqs(seqsOf(P), Options{Segmented: true})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Segments == 0 || st.SolverCalls == 0 || st.FinalStates == 0 || st.Duration <= 0 {
		t.Errorf("stats incomplete: %+v", st)
	}
	if st.SATPropagations == 0 {
		t.Errorf("solver stats not captured: %+v", st)
	}
}

func TestMultiSequence(t *testing.T) {
	// Two runs of a request/response protocol: one plain, one with a
	// retry path only the second run exercises.
	var p1, p2 []string
	for i := 0; i < 6; i++ {
		p1 = append(p1, "req", "ack")
	}
	for i := 0; i < 4; i++ {
		p2 = append(p2, "req", "nak", "req", "ack")
	}
	res, err := GenerateModelSeqs(seqsOf(p1, p2), Options{Segmented: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Automaton.IsDeterministic() {
		t.Error("not deterministic")
	}
	// The learned model accepts both runs from its initial state.
	if !res.Automaton.Accepts(p1) {
		t.Error("rejects run 1")
	}
	if !res.Automaton.Accepts(p2) {
		t.Error("rejects run 2")
	}
	// Compliance over the union: "nak nak" occurs in neither run.
	for _, w := range res.Automaton.SymbolSequences(2) {
		if w[0] == "nak" && w[1] == "nak" {
			t.Error("model realises nak nak")
		}
	}
}

func TestMultiSequenceSharedInitialState(t *testing.T) {
	// Runs starting with different symbols force a branching initial
	// state.
	p1 := []string{"a", "b", "a", "b"}
	p2 := []string{"c", "b", "c", "b"}
	res, err := GenerateModelSeqs(seqsOf(p1, p2), Options{Segmented: true})
	if err != nil {
		t.Fatal(err)
	}
	init := res.Automaton.Initial()
	if len(res.Automaton.Successors(init, "a")) == 0 || len(res.Automaton.Successors(init, "c")) == 0 {
		t.Errorf("initial state lacks a branch:\n%s", res.Automaton)
	}
	if !res.Automaton.Accepts(p1) || !res.Automaton.Accepts(p2) {
		t.Error("a run rejected")
	}
}

func TestMultiSequenceValidation(t *testing.T) {
	if _, err := GenerateModelSeqs(nil, Options{Segmented: true}); err == nil {
		t.Error("no sequences accepted")
	}
	if _, err := GenerateModelSeqs(seqsOf([]string{"a"}, nil), Options{Segmented: true}); err == nil {
		t.Error("empty sequence accepted")
	}
}

// TestSearchCountsFinalWalk: the solver work of every canonical walk
// reaches Stats, the walk that yields the returned model included.
// After a batch search and after each live revision, the retained
// solver has done no work since its last addStats.
func TestSearchCountsFinalWalk(t *testing.T) {
	for _, P := range propertySequences() {
		_, s, err := generate(seqsOf(P), Options{Segmented: true, MaxStates: 32}, nil)
		if err != nil {
			t.Fatalf("%v: %v", P, err)
		}
		if got, counted := s.enc.solver.Stats, s.enc.prev; got != counted {
			t.Fatalf("%v: solver stats %+v after the search, Stats counted %+v", P, got, counted)
		}
	}
	for name, word := range liveWorkloads() {
		lv, err := NewLive(Options{Segmented: true})
		if err != nil {
			t.Fatal(err)
		}
		for i, sym := range word {
			lv.Append(sym, 1)
			if !lv.Ready() {
				continue
			}
			if _, err := lv.Revise(false); err != nil {
				t.Fatalf("%s[:%d]: %v", name, i+1, err)
			}
			if got, counted := lv.s.enc.solver.Stats, lv.s.enc.prev; got != counted {
				t.Fatalf("%s[:%d]: solver stats %+v after the revision, Stats counted %+v", name, i+1, got, counted)
			}
		}
	}
}
