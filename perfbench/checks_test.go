package main

import (
	"strings"
	"testing"

	"repro/internal/automaton"
)

// counterModel is a 4-state cycle over a, b, c, d.
func counterModel(t *testing.T) *automaton.NFA {
	t.Helper()
	a := automaton.MustNew(4, 0)
	for i, sym := range []string{"a", "b", "c", "d"} {
		a.MustAddTransition(automaton.State(i), sym, automaton.State((i+1)%4))
	}
	return a
}

var counterWord = []string{"a", "b", "c", "d", "a", "b", "c", "d", "a"}

func TestChecksAcceptASoundModel(t *testing.T) {
	wantStates["test counter"] = 4
	defer delete(wantStates, "test counter")
	if err := checkModel("test counter", counterModel(t), wordSource(counterWord), 1); err != nil {
		t.Fatal(err)
	}
}

func TestChecksRejectANondeterministicEdge(t *testing.T) {
	a := counterModel(t)
	a.MustAddTransition(0, "a", 2)
	err := checkModel("corrupt", a, wordSource(counterWord), 2)
	if err == nil || !strings.Contains(err.Error(), "successors") {
		t.Fatalf("nondeterministic edge not reported: %v", err)
	}
}

func TestChecksRejectAWrongStateCount(t *testing.T) {
	wantStates["test counter"] = 5
	defer delete(wantStates, "test counter")
	err := checkModel("test counter", counterModel(t), wordSource(counterWord), 1)
	if err == nil || !strings.Contains(err.Error(), "recorded 5") {
		t.Fatalf("wrong state count not reported: %v", err)
	}
	// The recorded counts hold for the default seed only.
	if err := checkModel("test counter", counterModel(t), wordSource(counterWord), 3); err != nil {
		t.Fatalf("state count checked at a non-default seed: %v", err)
	}
}

func TestChecksRejectAModelThatRejectsItsInput(t *testing.T) {
	word := append(append([]string(nil), counterWord...), "c")
	err := checkModel("corrupt", counterModel(t), wordSource(word), 2)
	if err == nil || !strings.Contains(err.Error(), "step 9") {
		t.Fatalf("rejected training input not reported: %v", err)
	}
}

func TestWalkerAbsorbsSelfLoopRuns(t *testing.T) {
	a := automaton.MustNew(2, 0)
	a.MustAddTransition(0, "x", 0)
	a.MustAddTransition(0, "y", 1)
	w := newWalker(newTable(a))
	if err := w.feed("x", 1_000_000); err != nil {
		t.Fatal(err)
	}
	if err := w.feed("y", 1); err != nil {
		t.Fatal(err)
	}
	if err := w.feed("y", 1); err == nil {
		t.Fatal("y from q2 accepted")
	}
}

func TestChecksRejectALiveBatchDigestMismatch(t *testing.T) {
	live := []byte("t2m-model v1\nstates 6\n")
	if err := checkSame("live serial", live, append([]byte(nil), live...)); err != nil {
		t.Fatal(err)
	}
	if err := checkSame("live serial", live, []byte("t2m-model v1\nstates 7\n")); err == nil {
		t.Fatal("differing live and batch models not reported")
	}
}
