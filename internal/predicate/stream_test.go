package predicate

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/synth"
	"repro/internal/trace"
)

// mixedTrace is a small trace exercising memo hits, seed reuse and the
// wrap fallback: a mod-4 counter with an event variable.
func mixedTrace(t *testing.T, n int) *trace.Trace {
	t.Helper()
	schema := trace.MustSchema(
		trace.VarDef{Name: "count", Type: expr.Int},
		trace.VarDef{Name: "event", Type: expr.Sym},
	)
	tr := trace.New(schema)
	for i := 0; i < n; i++ {
		ev := "tick"
		if i%4 == 3 {
			ev = "wrap"
		}
		tr.MustAppend(trace.Observation{expr.IntVal(int64(i % 4)), expr.SymVal(ev)})
	}
	return tr
}

// TestSequenceSourceRuns: the emitted runs are maximal (no two
// adjacent runs share a predicate), cover every window exactly once in
// order, and each window's predicate holds on that window.
func TestSequenceSourceRuns(t *testing.T) {
	tr := mixedTrace(t, 64)
	g, err := NewGenerator(tr.Schema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var runs []Run
	if err := g.SequenceSource(trace.NewTraceSource(tr), func(r Run) error {
		runs = append(runs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	i := 0
	for k, r := range runs {
		if k > 0 && r.Pred == runs[k-1].Pred {
			t.Fatalf("runs %d and %d share predicate %q", k-1, k, r.Pred.Key)
		}
		for j := 0; j < r.Count; j++ {
			if err := Verify(r.Pred, tr.Slice(i, i+g.Window())); err != nil {
				t.Fatalf("window %d: %v", i, err)
			}
			i++
		}
	}
	if want := tr.Len() + 1 - g.Window(); i != want {
		t.Fatalf("runs cover %d windows, want %d", i, want)
	}
}

func TestSequenceSourceShortTrace(t *testing.T) {
	tr := mixedTrace(t, 2)
	g, err := NewGenerator(tr.Schema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = g.SequenceSource(trace.NewTraceSource(tr), func(Run) error { return nil })
	if err == nil {
		t.Fatal("no error for trace shorter than window")
	}
}

func TestSequenceSourceEmitError(t *testing.T) {
	tr := mixedTrace(t, 32)
	sentinel := errors.New("stop")
	g, err := NewGenerator(tr.Schema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = g.SequenceSource(trace.NewTraceSource(tr), func(Run) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want sentinel emit error", err)
	}
}

// TestSequenceSourceErrorIndex: a window whose synthesis fails must
// surface as an error naming the observation the window starts at,
// wrapping the synthesizer's error.
func TestSequenceSourceErrorIndex(t *testing.T) {
	// With MaxSize 2 the window [5,9,13] needs x + 4 (size 3) and
	// fails with ErrNoSolution; the preceding [5,5,9] window is
	// inconsistent and falls back to the explicit relation without
	// error. The first failing window starts at observation 4.
	tr := intTrace(t, 5, 5, 5, 5, 5, 9, 13)
	g, err := NewGenerator(tr.Schema(), Options{Synth: synth.Options{MaxSize: 2}})
	if err != nil {
		t.Fatal(err)
	}
	err = g.SequenceSource(trace.NewTraceSource(tr), func(Run) error { return nil })
	if err == nil {
		t.Fatal("sequence unexpectedly succeeded")
	}
	if want := "predicate: window at observation 4: "; !strings.HasPrefix(err.Error(), want) {
		t.Errorf("error %q does not start with %q", err, want)
	}
	if !errors.Is(err, synth.ErrNoSolution) {
		t.Errorf("error %v does not wrap synth.ErrNoSolution", err)
	}
}

// TestSequenceSourceContext: a cancelled Options.Context stops the pass
// between observations with the context's error, before the next
// window is built.
func TestSequenceSourceContext(t *testing.T) {
	tr := mixedTrace(t, 1000)
	ctx, cancel := context.WithCancel(context.Background())
	g, err := NewGenerator(tr.Schema(), Options{Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	err = g.SequenceSource(trace.NewTraceSource(tr), func(Run) error {
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if w := g.Stats().Windows; w >= tr.Len()+1-g.Window() {
		t.Errorf("cancelled pass still built all %d windows", w)
	}
}
