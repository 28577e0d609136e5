package learn

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/pipeline"
)

// liveWorkloads are prefix-growing words with the shapes the benchmark
// systems produce: a modular counter, a request/response protocol with
// occasional timeouts, and a word whose suffix introduces a new symbol
// (forcing the new-symbol re-minimization trigger).
func liveWorkloads() map[string][]string {
	counter := make([]string, 0, 36)
	for i := 0; i < 36; i++ {
		counter = append(counter, []string{"z", "p", "p"}[i%3])
	}
	var proto []string
	for i := 0; i < 10; i++ {
		proto = append(proto, "send", "ack")
		if i%4 == 3 {
			proto = append(proto, "timeout")
		}
	}
	grow := append([]string{}, counter[:18]...)
	grow = append(grow, "q", "z", "p", "p", "q", "z", "p", "p", "q")
	return map[string][]string{"counter": counter, "proto": proto, "newsym": grow}
}

// TestLiveMatchesBatchEveryPrefix is the core live-maintenance
// guarantee at the learn layer: after Revise over any prefix, the live
// model is byte-identical to a fresh batch GenerateModelSeqs over the
// same prefix — across workloads, and regardless of whether the
// revision extended or re-minimized.
func TestLiveMatchesBatchEveryPrefix(t *testing.T) {
	opts := Options{Segmented: true}
	for name, word := range liveWorkloads() {
		lv, err := NewLive(opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, sym := range word {
			lv.Append(sym, 1)
			if !lv.Ready() {
				continue
			}
			if _, err := lv.Revise(false); err != nil {
				t.Fatalf("%s[:%d]: Revise: %v", name, i+1, err)
			}
			batch, err := GenerateModelSeqs([]*Seq{seqOf(word[:i+1])}, opts)
			if err != nil {
				t.Fatalf("%s[:%d]: batch: %v", name, i+1, err)
			}
			if lm, bm := lv.Model().String(), batch.Automaton.String(); lm != bm {
				t.Fatalf("%s[:%d]: live model diverges from batch:\nlive:\n%s\nbatch:\n%s",
					name, i+1, lm, bm)
			}
		}
	}
}

// TestLiveFastPathZeroSolverCalls: once the model has seen every
// window of a periodic word, replaying more periods adds no segments
// and no grams, and Revise must not touch the solver at all.
func TestLiveFastPathZeroSolverCalls(t *testing.T) {
	lv, err := NewLive(Options{Segmented: true})
	if err != nil {
		t.Fatal(err)
	}
	period := []string{"z", "p", "p"}
	for i := 0; i < 12; i++ {
		lv.Append(period[i%3], 1)
	}
	if _, err := lv.Revise(false); err != nil {
		t.Fatal(err)
	}
	calls := lv.Stats().SolverCalls
	if calls == 0 {
		t.Fatal("initial revision made no solver calls")
	}
	for rep := 0; rep < 5; rep++ {
		for _, sym := range period {
			if n := lv.Append(sym, 1); n != 0 {
				t.Fatalf("replayed period produced %d new segments", n)
			}
		}
		remin, err := lv.Revise(false)
		if err != nil {
			t.Fatal(err)
		}
		if remin {
			t.Fatal("replayed period forced a re-minimization")
		}
	}
	if got := lv.Stats().SolverCalls; got != calls {
		t.Fatalf("fast path made %d solver calls (total %d, was %d)", got-calls, got, calls)
	}
}

// TestLiveStaleBlockedGramForcesRemin: when a gram blocked by the
// retained search later occurs in the input, the retained clauses are
// unsound and Revise must fall back to a full re-minimization — and
// still match batch (covered by the every-prefix test; here the
// trigger itself is asserted).
func TestLiveStaleBlockedGramForcesRemin(t *testing.T) {
	lv, err := NewLive(Options{Segmented: true})
	if err != nil {
		t.Fatal(err)
	}
	var word []string
	for i := 0; i < 12; i++ {
		word = append(word, "send", "ack", "send", "ack", "timeout")
	}
	for _, sym := range word {
		lv.Append(sym, 1)
	}
	if _, err := lv.Revise(false); err != nil {
		t.Fatal(err)
	}
	if len(lv.s.blocked) == 0 {
		t.Skip("workload produced no blocked grams; stale trigger not exercisable")
	}
	// Append an occurrence of a blocked gram: it becomes a valid gram
	// of the grown sequence, so the stale flag must trip and the next
	// revision must re-minimize.
	g := lv.s.blocked[0]
	for _, id := range g {
		lv.AppendID(id, 1)
	}
	if !lv.stale {
		t.Fatal("blocked gram occurred in input but stale flag not set")
	}
	remin, err := lv.Revise(false)
	if err != nil {
		t.Fatal(err)
	}
	if !remin {
		t.Fatal("stale retained state did not force a re-minimization")
	}
	batch, err := GenerateModelSeqs([]*Seq{cloneSeqFromLive(lv)}, Options{Segmented: true})
	if err != nil {
		t.Fatal(err)
	}
	if lm, bm := lv.Model().String(), batch.Automaton.String(); lm != bm {
		t.Fatalf("post-stale model diverges from batch:\nlive:\n%s\nbatch:\n%s", lm, bm)
	}
}

// switchCtx is a context whose cancellation a test switches on and off.
type switchCtx struct {
	context.Context
	err error
}

func (c *switchCtx) Err() error { return c.err }

// TestLiveFailedReminimization: a re-minimization that fails — here
// because the context is cancelled before its first solve — has
// already taken over the retained solver, so the learner keeps its
// last model but no retained search. Dirty must then report true and
// Walk still walk the kept model; once the context clears, the next
// Revise re-minimizes to the batch model.
func TestLiveFailedReminimization(t *testing.T) {
	ctx := &switchCtx{Context: context.Background()}
	lv, err := NewLive(Options{Segmented: true, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		for _, sym := range []string{"send", "ack", "send", "ack", "timeout"} {
			lv.Append(sym, 1)
		}
	}
	if _, err := lv.Revise(false); err != nil {
		t.Fatal(err)
	}
	model := lv.Model().String()
	end, ok := lv.Walk()
	if !ok {
		t.Fatal("model rejects the sequence it was learned from")
	}

	ctx.err = context.Canceled
	if _, err := lv.Revise(true); !errors.Is(err, context.Canceled) {
		t.Fatalf("Revise under a cancelled context = %v, want context.Canceled", err)
	}
	if lv.Model().String() != model {
		t.Fatal("a failed re-minimization replaced the model")
	}
	if !lv.Dirty() {
		t.Fatal("Dirty = false with no retained search")
	}
	if got, ok := lv.Walk(); !ok || got != end {
		t.Fatalf("Walk = %d, %v after the failed re-minimization; want %d, true", got, ok, end)
	}

	ctx.err = nil
	remin, err := lv.Revise(false)
	if err != nil {
		t.Fatal(err)
	}
	if !remin {
		t.Fatal("Revise after a failed re-minimization did not re-minimize")
	}
	if lv.Dirty() {
		t.Fatal("no retained search after a successful re-minimization")
	}
	batch, err := GenerateModelSeqs([]*Seq{cloneSeqFromLive(lv)}, Options{Segmented: true})
	if err != nil {
		t.Fatal(err)
	}
	if lm, bm := lv.Model().String(), batch.Automaton.String(); lm != bm {
		t.Fatalf("recovered model diverges from batch:\nlive:\n%s\nbatch:\n%s", lm, bm)
	}
}

// TestLiveFailedExtensionStaysDirty: an extension cut short — here by
// a context cancelled before its first solve — must leave its windows
// pending, so the learner stays dirty; once the context clears, the
// next Revise must reach the batch model and leave the learner clean.
func TestLiveFailedExtensionStaysDirty(t *testing.T) {
	ctx := &switchCtx{Context: context.Background()}
	lv, err := NewLive(Options{Segmented: true, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	for _, sym := range strings.Split("aabbababab", "") {
		lv.Append(sym, 1)
	}
	if _, err := lv.Revise(false); err != nil {
		t.Fatal(err)
	}
	lv.Append("a", 1)
	lv.Append("a", 1)
	pending := lv.Pending()
	if pending == 0 || !lv.Dirty() {
		t.Fatalf("appending aa left %d pending segments, Dirty = %v; want new evidence", pending, lv.Dirty())
	}

	ctx.err = context.Canceled
	remin, err := lv.Revise(false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Revise under a cancelled context = %v, want context.Canceled", err)
	}
	if remin {
		t.Fatal("the cancelled Revise re-minimized; want an extension")
	}
	if !lv.Dirty() || lv.Pending() != pending {
		t.Fatalf("after the failed extension: Dirty = %v, %d pending; want true, %d", lv.Dirty(), lv.Pending(), pending)
	}

	ctx.err = nil
	if _, err := lv.Revise(false); err != nil {
		t.Fatal(err)
	}
	if lv.Dirty() {
		t.Fatal("Dirty after a successful Revise")
	}
	batch, err := GenerateModelSeqs([]*Seq{cloneSeqFromLive(lv)}, Options{Segmented: true})
	if err != nil {
		t.Fatal(err)
	}
	if lm, bm := lv.Model().String(), batch.Automaton.String(); lm != bm {
		t.Fatalf("model after the retried extension diverges from batch:\nlive:\n%s\nbatch:\n%s", lm, bm)
	}
}

// cloneSeqFromLive rebuilds the live sequence as a fresh batch input.
func cloneSeqFromLive(lv *Live) *Seq {
	seq := NewSeq()
	for i, id := range lv.seq.ids {
		seq.Append(lv.seq.syms[id], int(lv.seq.counts[i]))
	}
	return seq
}

// TestLiveRejectsUnsupportedOptions: live maintenance is the segmented
// algorithm; the non-segmented baseline is refused up front, and so is
// a revision of a sequence shorter than the segmentation window.
func TestLiveRejectsUnsupportedOptions(t *testing.T) {
	if _, err := NewLive(Options{}); err == nil {
		t.Fatal("non-segmented options accepted")
	}
	lv, err := NewLive(Options{Segmented: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lv.Revise(false); err == nil {
		t.Fatal("revision of an empty sequence accepted")
	}
	lv.Append("a", 1)
	if _, err := lv.Revise(false); err == nil {
		t.Fatal("revision below the segmentation window accepted")
	}
}

// TestLiveExtendAccountsStats: an extension's wall and CPU time count
// towards Stats on every return path — an extend-only revision and an
// extension that goes UNSAT at the retained level (errNeedGrow) alike —
// and an extension records the same solve and canonical-extraction
// telemetry as a batch search, trace spans included: one solve span
// per solver call. A fake CPU clock advancing 1 ms per
// read makes the CPU accounting exact: one extension reads it twice.
func TestLiveExtendAccountsStats(t *testing.T) {
	defer func(prev func() time.Duration) { cpuTime = prev }(cpuTime)
	var clock time.Duration
	cpuTime = func() time.Duration {
		clock += time.Millisecond
		return clock
	}
	learnThen := func(word, suffix string, tel *pipeline.Telemetry) *Live {
		t.Helper()
		lv, err := NewLive(Options{Segmented: true, Telemetry: tel})
		if err != nil {
			t.Fatal(err)
		}
		for _, sym := range strings.Split(word, "") {
			lv.Append(sym, 1)
		}
		if _, err := lv.Revise(false); err != nil {
			t.Fatal(err)
		}
		for _, sym := range strings.Split(suffix, "") {
			lv.Append(sym, 1)
		}
		return lv
	}

	reg := pipeline.NewRegistry()
	tr := pipeline.NewTracer(io.Discard)
	lv := learnThen("acbaacbaacba", "cb", &pipeline.Telemetry{Registry: reg, Tracer: tr})
	before := lv.Stats()
	solves := reg.Histogram("solver_call_ns", "ns").Summary().Count
	spans := tr.Rollups()["solve"].Count
	canon := reg.Histogram("learn_canonical_ns", "ns").Summary().Count
	remin, err := lv.Revise(false)
	if err != nil || remin {
		t.Fatalf("extend-only revision: reminimized=%v err=%v", remin, err)
	}
	after := lv.Stats()
	if after.SolverCalls == before.SolverCalls {
		t.Fatal("extend-only revision made no solver calls")
	}
	if d := after.CPU - before.CPU; d != time.Millisecond {
		t.Errorf("extend-only revision added %v CPU, want one extension's 1ms", d)
	}
	if after.Duration <= before.Duration {
		t.Errorf("extend-only revision added no wall time (%v → %v)", before.Duration, after.Duration)
	}
	calls := after.SolverCalls - before.SolverCalls
	if got := reg.Histogram("solver_call_ns", "ns").Summary().Count - solves; got != int64(calls) {
		t.Errorf("extension observed %d solver_call_ns samples for %d solver calls", got, calls)
	}
	if got := tr.Rollups()["solve"].Count - spans; got != int64(calls) {
		t.Errorf("extension traced %d solve spans for %d solver calls", got, calls)
	}
	if got := reg.Histogram("learn_canonical_ns", "ns").Summary().Count - canon; got < 1 || got > int64(calls) {
		t.Errorf("extension observed %d learn_canonical_ns samples for %d solver calls", got, calls)
	}

	lv = learnThen("cbcacbcacbca", "bc", nil)
	before = lv.Stats()
	if err := lv.extend(); err != errNeedGrow {
		t.Fatalf("extend = %v, want errNeedGrow", err)
	}
	after = lv.Stats()
	if d := after.CPU - before.CPU; d != time.Millisecond {
		t.Errorf("failed extension added %v CPU, want 1ms", d)
	}
	if after.Duration <= before.Duration {
		t.Errorf("failed extension added no wall time (%v → %v)", before.Duration, after.Duration)
	}
}

// FuzzLiveMatchesBatch: the input decodes into a word over at most
// four symbols, one byte per Append — bits 0–1 the symbol, bits 2–3
// the run length minus one, so consecutive bytes split runs at random
// — and bit 4 forces a re-minimization at the revision that follows.
// After every Append from the first full window on, a successful
// Revise must leave the model a fresh GenerateModelSeqs learns over
// the same prefix, and a failed one must match a failed batch search.
func FuzzLiveMatchesBatch(f *testing.F) {
	for _, word := range liveWorkloads() {
		ids := map[string]byte{}
		var in []byte
		for _, sym := range word {
			id, ok := ids[sym]
			if !ok {
				id = byte(len(ids))
				ids[sym] = id
			}
			in = append(in, id)
		}
		f.Add(in)
	}
	f.Add([]byte{0x00, 0x05, 0x0a, 0x1b, 0x00, 0x15, 0x02, 0x0e, 0x13})
	syms := []string{"a", "b", "c", "d"}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 24 {
			in = in[:24]
		}
		opts := Options{Segmented: true, MaxStates: 5}
		lv, err := NewLive(opts)
		if err != nil {
			t.Fatal(err)
		}
		var word []string
		for i, b := range in {
			sym, count := syms[b&3], 1+int(b>>2&3)
			lv.Append(sym, count)
			for k := 0; k < count; k++ {
				word = append(word, sym)
			}
			if !lv.Ready() {
				continue
			}
			_, liveErr := lv.Revise(b&0x10 != 0)
			batch, batchErr := GenerateModelSeqs([]*Seq{seqOf(word)}, opts)
			if (liveErr == nil) != (batchErr == nil) {
				t.Fatalf("byte %d, word %v: live error %v, batch error %v", i, word, liveErr, batchErr)
			}
			if liveErr != nil {
				return
			}
			if lm, bm := lv.Model().String(), batch.Automaton.String(); lm != bm {
				t.Fatalf("byte %d, word %v: live model diverges from batch:\nlive:\n%s\nbatch:\n%s", i, word, lm, bm)
			}
		}
	})
}
