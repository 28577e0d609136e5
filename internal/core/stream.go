// The learning path: Learn, LearnAll, LearnSource and LearnSources
// all run learn, which windows each trace.Source into a run-length-
// encoded learn.Seq (predicate stage) and solves the seqs together
// (model stage). Resident memory is O(window + unique windows + unique
// grams + RLE runs) unless the caller asks for the expanded predicate
// sequence (Model.P), which only the in-memory entry points do.
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/learn"
	"repro/internal/pipeline"
	"repro/internal/predicate"
	"repro/internal/trace"
)

// Learn runs the full pipeline on one trace.
func (p *Pipeline) Learn(tr *trace.Trace) (*Model, error) {
	if tr == nil || tr.Len() < 2 {
		return nil, errors.New("core: trace must have at least 2 observations")
	}
	return p.learn([]trace.Source{trace.NewTraceSource(tr)}, true)
}

// LearnAll learns one model from several traces of the same system —
// independent runs all starting in the same initial state, exercising
// behaviours one run alone may miss. Predicate abstraction is shared
// (one alphabet) and the learned automaton accepts every run.
func (p *Pipeline) LearnAll(trs []*trace.Trace) (*Model, error) {
	if len(trs) == 0 {
		return nil, errors.New("core: no traces")
	}
	srcs := make([]trace.Source, len(trs))
	for i, tr := range trs {
		if tr == nil || tr.Len() < 2 {
			return nil, fmt.Errorf("core: trace %d must have at least 2 observations", i)
		}
		srcs[i] = trace.NewTraceSource(tr)
	}
	return p.learn(srcs, true)
}

// LearnSource runs the full pipeline on a streamed trace. The model's
// P field is nil — the expanded predicate sequence is deliberately
// never materialised — and the predicate stage records its run count.
// With Options.Context set the run is cancellable at observation and
// solver-round boundaries.
func (p *Pipeline) LearnSource(src trace.Source) (*Model, error) {
	return p.learn([]trace.Source{src}, false)
}

// LearnSources runs the streaming pipeline over several traces of the
// same system — the streaming counterpart of LearnAll, and the fold
// step of the active-probing loop: each probe round relearns from
// [seed trace, probe trace] without materialising either predicate
// sequence.
func (p *Pipeline) LearnSources(srcs []trace.Source) (*Model, error) {
	if len(srcs) == 0 {
		return nil, errors.New("core: no sources")
	}
	return p.learn(srcs, false)
}

// learn runs both stages over srcs. Each source is windowed in one
// SequenceSource pass into its own learn.Seq, under one heap sampler;
// learn.GenerateModelSeqs then solves the seqs together. expand fills
// Model.P with the concatenated predicate sequences (the in-memory
// entry points); otherwise P stays nil and the predicate stage records
// its run count instead.
func (p *Pipeline) learn(srcs []trace.Source, expand bool) (*Model, error) {
	tel := p.opts.Telemetry
	ttr := tel.Trace()
	run := ttr.Start(0, "run")
	defer ttr.End(run)
	before := p.gen.Stats()
	hs := pipeline.StartHeapSampler(0)
	defer hs.Stop()
	stage := pipeline.StartStage(ttr, run, "predicate")
	if stage.Span != 0 {
		p.gen.SetTelemetry(tel, stage.Span)
	}
	wallStart := time.Now()

	// Live gauges: heap from the sampler (its cached values stay
	// readable after Stop), observation throughput from the windows
	// counter. Registered per run; later runs simply replace them.
	tel.Gauge("heap_bytes", func() float64 { return float64(hs.Current()) })
	tel.Gauge("peak_heap_bytes", func() float64 { return float64(hs.Peak()) })
	windows := tel.Count("predicate_windows_total")
	tel.Gauge("obs_per_sec", func() float64 {
		secs := time.Since(wallStart).Seconds()
		if secs <= 0 {
			return 0
		}
		return float64(windows.Value()) / secs
	})
	hRunLen := tel.Hist("predicate_run_len", "windows")

	alphabet := make(map[string]*predicate.Predicate)
	seqs := make([]*learn.Seq, len(srcs))
	var P []string
	for i, src := range srcs {
		seq := learn.NewSeq()
		seqs[i] = seq
		// Predicates are interned, so their pointers are the cheap
		// identity: cache the per-predicate symbol id and alphabet
		// insertion to avoid hashing the (long) predicate key per run.
		symIDs := map[*predicate.Predicate]int{}
		emit := func(r predicate.Run) error {
			id, ok := symIDs[r.Pred]
			if !ok {
				alphabet[r.Pred.Key] = r.Pred
				id = seq.InternSym(r.Pred.Key)
				symIDs[r.Pred] = id
			}
			seq.AppendID(id, r.Count)
			hRunLen.Observe(int64(r.Count))
			if expand {
				for j := 0; j < r.Count; j++ {
					P = append(P, r.Pred.Key)
				}
			}
			return nil
		}
		if err := p.gen.SequenceSource(src, emit); err != nil {
			if len(srcs) > 1 {
				err = fmt.Errorf("source %d: %w", i, err)
			}
			ttr.End(stage.Span)
			return nil, p.interrupted("predicate", err)
		}
	}

	d := p.gen.Stats().Minus(before)
	observations := int64(d.Windows) + int64(len(srcs))*int64(p.gen.Window()-1)
	counters := []pipeline.Counter{
		{Name: "windows", Value: int64(d.Windows)},
		{Name: "memo_hits", Value: int64(d.MemoHits)},
		{Name: "unique_windows", Value: int64(d.UniqueWindows)},
		{Name: "synth_calls", Value: int64(d.SynthCalls)},
		{Name: "seed_hits", Value: int64(d.SeedHits)},
		{Name: "observations", Value: observations},
	}
	var bytesRead int64
	byteSources := 0
	for _, src := range srcs {
		if bs, ok := src.(trace.ByteSource); ok {
			bytesRead += bs.BytesRead()
			byteSources++
		}
	}
	if byteSources > 0 {
		counters = append(counters, pipeline.Counter{Name: "bytes_read", Value: bytesRead})
	}
	if secs := time.Since(wallStart).Seconds(); secs > 0 {
		rate := float64(observations) / secs
		counters = append(counters, pipeline.Counter{Name: "obs_per_sec", Value: int64(rate)})
		// Freeze the throughput gauge at the stage's final rate so a
		// lingering /metrics endpoint reports the run, not the decay.
		tel.Gauge("obs_per_sec", func() float64 { return rate })
	}
	if !expand {
		runs := 0
		for _, seq := range seqs {
			runs += seq.Runs()
		}
		counters = append(counters, pipeline.Counter{Name: "runs", Value: int64(runs)})
	}
	counters = append(counters, pipeline.Counter{Name: "peak_heap", Value: int64(hs.Stop())})
	predRow := stage.End(counters...)

	stage = pipeline.StartStage(ttr, run, "model")
	lo := p.opts.Learn
	lo.TraceSpan = stage.Span
	res, err := learn.GenerateModelSeqs(seqs, lo)
	if err != nil {
		ttr.End(stage.Span, pipeline.Bool("ok", false))
		if ierr := p.interrupted("model", err); ierr != err {
			return nil, ierr
		}
		return nil, fmt.Errorf("core: model construction: %w", err)
	}
	s := res.Stats
	modelRow := stage.End(
		pipeline.Counter{Name: "segments", Value: int64(s.Segments)},
		pipeline.Counter{Name: "solver_calls", Value: int64(s.SolverCalls)},
		pipeline.Counter{Name: "refinements", Value: int64(s.Refinements + s.AcceptRefinements)},
		pipeline.Counter{Name: "sat_conflicts", Value: s.SATConflicts},
		pipeline.Counter{Name: "sat_decisions", Value: s.SATDecisions},
		pipeline.Counter{Name: "sat_propagations", Value: s.SATPropagations},
		pipeline.Counter{Name: "sat_learned", Value: s.SATLearned},
		pipeline.Counter{Name: "states", Value: int64(s.FinalStates)},
	)
	return &Model{
		Automaton:      res.Automaton,
		P:              P,
		Alphabet:       alphabet,
		States:         s.FinalStates,
		PredicateStats: p.gen.Stats(),
		LearnStats:     s,
		Stages:         []pipeline.StageMetrics{predRow, modelRow},
		pipeline:       p,
	}, nil
}

// interrupted wraps err with the stage the run was cancelled in when
// the run context is done; otherwise it returns err unchanged.
func (p *Pipeline) interrupted(stage string, err error) error {
	if ctx := p.opts.Context; ctx != nil && ctx.Err() != nil {
		return fmt.Errorf("core: interrupted at stage %s: %w", stage, err)
	}
	return err
}

// errCheckDone aborts the predicate stream once CheckSource has found
// its violation; it never escapes.
var errCheckDone = errors.New("core: check finished")

// CheckSource abstracts a streamed trace with the model's predicate
// generator and runs it through the automaton, returning the first
// violation or nil. The trace is never materialised, so arbitrarily
// long live traces can be monitored in bounded memory.
func (m *Model) CheckSource(src trace.Source) (*Violation, error) {
	known := map[string]bool{}
	for _, sym := range m.Automaton.Symbols() {
		known[sym] = true
	}
	cur := m.Automaton.Initial()
	pos := 0
	var v *Violation
	err := m.pipeline.gen.SequenceSource(src, func(r predicate.Run) error {
		for i := 0; i < r.Count; i++ {
			next, ok := m.Automaton.Step(cur, r.Pred.Key)
			if !ok {
				v = &Violation{
					Position:    pos,
					Predicate:   r.Pred.Key,
					KnownSymbol: known[r.Pred.Key],
					State:       cur,
				}
				return errCheckDone
			}
			if next == cur {
				// Self-loop: the rest of the run stays put.
				pos += r.Count - i
				break
			}
			cur = next
			pos++
		}
		return nil
	})
	if err != nil && !errors.Is(err, errCheckDone) {
		return nil, err
	}
	return v, nil
}
