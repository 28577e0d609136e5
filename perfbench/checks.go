package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/automaton"
	"repro/internal/core"
)

// wantStates is the state count each learned model must have at the
// default seed (1). The paper-six values are the ones this learner
// reproduces for the paper's systems: USB Attach learns 6 states where
// the paper reports 7, Linux 7 where it reports 8, Integrator 4 where
// it reports 3.
var wantStates = map[string]int{
	"USB Slot":       4,
	"USB Attach":     6,
	"Counter":        4,
	"Serial":         6,
	"Linux Kernel":   7,
	"Integrator":     4,
	"integrator.csv": 4,
	"rtlinux.ftrace": 7,
	"live serial":    6,
}

// edge is one (state, predicate) pair of a model.
type edge struct {
	from int
	sym  string
}

// table is the benchmark's own copy of a model's transition relation,
// built from the automaton's edge list. The checks below walk it
// instead of calling the learner's acceptance or monitoring code.
type table struct {
	initial int
	states  int
	next    map[edge][]int
}

func newTable(a *automaton.NFA) table {
	t := table{initial: int(a.Initial()), states: a.NumStates(), next: map[edge][]int{}}
	for _, tr := range a.Transitions() {
		k := edge{int(tr.From), tr.Symbol}
		t.next[k] = append(t.next[k], int(tr.To))
	}
	return t
}

// deterministic fails on the first (state, predicate) pair with more
// than one successor.
func (t table) deterministic() error {
	for k, succ := range t.next {
		if len(succ) > 1 {
			return fmt.Errorf("state q%d has %d successors on %q", k.from+1, len(succ), k.sym)
		}
	}
	return nil
}

// walker runs a predicate run stream through a table with state-set
// semantics (every state accepting; a word is rejected only when the
// set of current states empties).
type walker struct {
	t   table
	cur []int
	pos int64
}

func newWalker(t table) *walker { return &walker{t: t, cur: []int{t.initial}} }

// feed consumes count consecutive occurrences of sym.
func (w *walker) feed(sym string, count int) error {
	for i := 0; i < count; i++ {
		seen := map[int]bool{}
		var next []int
		for _, s := range w.cur {
			for _, n := range w.t.next[edge{s, sym}] {
				if !seen[n] {
					seen[n] = true
					next = append(next, n)
				}
			}
		}
		if len(next) == 0 {
			return fmt.Errorf("model rejects its training input at step %d: no transition on %q", w.pos+int64(i), sym)
		}
		same := len(next) == len(w.cur)
		for _, s := range w.cur {
			same = same && seen[s]
		}
		w.cur = next
		if same {
			break // a fixpoint: the rest of the run cannot change the set
		}
	}
	w.pos += int64(count)
	return nil
}

// runSource replays a learned model's training input as predicate runs.
type runSource func(emit func(sym string, count int) error) error

// checkModel runs the independent checks on one learned model: at most
// one successor per (state, predicate), acceptance of its own training
// input, and, at the default seed, the recorded state count.
func checkModel(name string, a *automaton.NFA, input runSource, seed int64) error {
	if a == nil {
		return fmt.Errorf("%s: no model", name)
	}
	t := newTable(a)
	if err := t.deterministic(); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	w := newWalker(t)
	if err := input(w.feed); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if seed == 1 {
		if err := checkStates(name, t.states); err != nil {
			return err
		}
	}
	return nil
}

func checkStates(name string, got int) error {
	want, ok := wantStates[name]
	if !ok {
		return fmt.Errorf("%s: no recorded state count", name)
	}
	if got != want {
		return fmt.Errorf("%s: %d states, recorded %d", name, got, want)
	}
	return nil
}

// wordSource replays an expanded predicate sequence.
func wordSource(word []string) runSource {
	return func(emit func(string, int) error) error {
		for _, sym := range word {
			if err := emit(sym, 1); err != nil {
				return err
			}
		}
		return nil
	}
}

// modelBytes is a model's saved form (core.WriteModel).
func modelBytes(m *core.Model) ([]byte, error) {
	var b bytes.Buffer
	if err := core.WriteModel(&b, m); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkSame fails when two saved models differ.
func checkSame(what string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: saved model %s differs from reference %s", what, digest(got)[:12], digest(want)[:12])
	}
	return nil
}
