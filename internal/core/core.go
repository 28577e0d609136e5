// Package core wires the paper's pipeline together: trace →
// transition-predicate sequence (internal/predicate) → SAT-based
// minimal automaton (internal/learn). It is the home of the paper's
// primary contribution; the repository-root package repro is a thin
// façade over it.
//
// Beyond learning, the package implements the monitoring application
// the paper motivates for the RT-Linux benchmark (de Oliveira et al.
// use hand-drawn kernel models as runtime monitors): a learned Model
// can Check fresh traces of the same system and report the first
// behaviour the model does not explain, which is either a coverage
// gap or a regression.
package core

import (
	"context"
	"fmt"

	"repro/internal/automaton"
	"repro/internal/checkpoint"
	"repro/internal/learn"
	"repro/internal/pipeline"
	"repro/internal/predicate"
	"repro/internal/trace"
)

// Options configures a Pipeline. Zero values select the paper's
// defaults (see the field docs of predicate.Options and
// learn.Options).
type Options struct {
	Predicate predicate.Options
	Learn     learn.Options
	// Telemetry attaches a run tracer and metric registry to every
	// learning run of the pipeline: run → stage → unit spans in the
	// trace, counters and latency histograms in the registry. Nil
	// disables all recording at near-zero cost; telemetry never
	// changes results.
	Telemetry *pipeline.Telemetry
	// Context cancels learning and checking runs at safe boundaries:
	// between observations during ingestion, inside synthesis, and
	// between solver rounds during model construction. Nil means never
	// cancelled. Cancellation surfaces as an "interrupted at stage X"
	// error and never leaves partial state behind.
	Context context.Context
	// Checkpoint enables periodic crash-consistent snapshots of
	// LearnSource runs, and resume from them (see internal/checkpoint
	// and checkpoint.go). The zero value disables checkpointing.
	Checkpoint checkpoint.Config
}

// Pipeline learns models from traces over one schema. The predicate
// generator is stateful (window memoisation, next-function seeds), so
// learning several traces of the same system through one Pipeline
// yields a consistent predicate alphabet.
type Pipeline struct {
	schema *trace.Schema
	opts   Options
	gen    *predicate.Generator
}

// NewPipeline returns a pipeline for the schema.
func NewPipeline(schema *trace.Schema, opts Options) (*Pipeline, error) {
	if opts.Context != nil {
		opts.Predicate.Context = opts.Context
		opts.Learn.Context = opts.Context
	}
	gen, err := predicate.NewGenerator(schema, opts.Predicate)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{schema: schema, opts: opts, gen: gen}
	if opts.Telemetry != nil {
		p.SetTelemetry(opts.Telemetry)
	}
	return p, nil
}

// SetTelemetry attaches (or replaces) the pipeline's telemetry after
// construction — the monitor path loads a persisted model first and
// attaches telemetry afterwards. Must not run concurrently with a
// learning run.
func (p *Pipeline) SetTelemetry(tel *pipeline.Telemetry) {
	p.opts.Telemetry = tel
	p.opts.Learn.Telemetry = tel
	p.gen.SetTelemetry(tel, 0)
}

// startStage opens a stage trace span under the run span and points
// the predicate generator's unit spans at it. Returns the span id (0
// when tracing is off).
func (p *Pipeline) startStage(run pipeline.SpanID, name string) pipeline.SpanID {
	tr := p.opts.Telemetry.Trace()
	if !tr.Enabled() {
		return 0
	}
	id := tr.Start(run, name)
	if name == "predicate" {
		p.gen.SetTelemetry(p.opts.Telemetry, id)
	}
	return id
}

// Generator exposes the pipeline's predicate generator.
func (p *Pipeline) Generator() *predicate.Generator { return p.gen }

// Model is a learned model bound to its pipeline, so it can abstract
// and check further traces.
type Model struct {
	Automaton *automaton.NFA
	// P is the expanded predicate-key sequence of the training traces,
	// concatenated; only the in-memory entry points (Learn, LearnAll)
	// fill it, streamed runs leave it nil.
	P        []string
	Alphabet map[string]*predicate.Predicate
	States   int

	PredicateStats predicate.Stats
	LearnStats     learn.Stats
	// Stages is the per-stage metrics report for this learning run:
	// wall/CPU time and counters for the predicate-abstraction and
	// model-construction stages.
	Stages []pipeline.StageMetrics

	pipeline *Pipeline
}

// SetTelemetry attaches telemetry to the model's pipeline for the
// monitoring path (Check/CheckSource on a loaded model).
func (m *Model) SetTelemetry(tel *pipeline.Telemetry) { m.pipeline.SetTelemetry(tel) }

// SetContext attaches a cancellation context to the model's pipeline
// for the monitoring path: CheckSource stops between observations and
// in-flight synthesis aborts when ctx is cancelled.
func (m *Model) SetContext(ctx context.Context) {
	m.pipeline.opts.Context = ctx
	m.pipeline.gen.SetContext(ctx)
}

// BuildManifest assembles the run-manifest skeleton for this model:
// per-stage metrics, the registry's counters and histogram summaries,
// and the final model statistics. The caller fills in tool identity,
// created_at, config and inputs before writing (see pipeline.Manifest).
func (m *Model) BuildManifest(tel *pipeline.Telemetry) *pipeline.Manifest {
	man := &pipeline.Manifest{
		Version: pipeline.ManifestVersion,
		Stages:  pipeline.StageManifests(m.Stages),
	}
	mm := &pipeline.ModelManifest{
		States:            m.States,
		Symbols:           len(m.Alphabet),
		Segments:          m.LearnStats.Segments,
		SolverCalls:       m.LearnStats.SolverCalls,
		Refinements:       m.LearnStats.Refinements,
		AcceptRefinements: m.LearnStats.AcceptRefinements,
		SATConflicts:      m.LearnStats.SATConflicts,
		SATDecisions:      m.LearnStats.SATDecisions,
		SATPropagations:   m.LearnStats.SATPropagations,
		SATLearned:        m.LearnStats.SATLearned,
	}
	if m.Automaton != nil {
		mm.Transitions = m.Automaton.NumTransitions()
	}
	man.Model = mm
	if tel != nil && tel.Registry != nil {
		man.Counters = tel.Registry.CounterValues()
		man.Histograms = tel.Registry.Summaries()
	}
	return man
}

// Violation reports the first behaviour of a checked trace that the
// model does not explain.
type Violation struct {
	// Position is the predicate-sequence index at which the run
	// died (≈ the trace observation index of the window).
	Position int
	// Predicate is the unexplained predicate.
	Predicate string
	// KnownSymbol reports whether the predicate occurs anywhere in
	// the model (false means entirely novel behaviour; true means a
	// known behaviour in an unexpected context).
	KnownSymbol bool
	// State is the model state the run was in.
	State automaton.State
}

// Error renders the violation.
func (v *Violation) Error() string {
	kind := "novel behaviour"
	if v.KnownSymbol {
		kind = "known behaviour in unexpected context"
	}
	return fmt.Sprintf("monitor: %s at position %d: %s (model state q%d)",
		kind, v.Position, v.Predicate, v.State+1)
}

// Abstract maps a trace to its predicate-key sequence using the
// model's own generator, so the keys are alphabet-consistent with the
// model's transition labels. Windows unseen during learning are
// synthesized on the fly (and get fresh keys the automaton cannot
// know); the active prober uses this to locate and report divergences
// with their surrounding symbol context.
func (m *Model) Abstract(tr *trace.Trace) ([]string, error) {
	var keys []string
	err := m.pipeline.gen.SequenceSource(trace.NewTraceSource(tr), func(r predicate.Run) error {
		for i := 0; i < r.Count; i++ {
			keys = append(keys, r.Pred.Key)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return keys, nil
}

// Check abstracts a fresh trace with the model's own predicate
// generator and runs it through the automaton, returning the first
// violation, or nil when the model explains the whole trace. The
// paper's monitoring application: learned kernel models checking live
// scheduler traces. It is CheckSource over the trace.
func (m *Model) Check(tr *trace.Trace) (*Violation, error) {
	return m.CheckSource(trace.NewTraceSource(tr))
}

// Explain returns, for every automaton transition, one witness step
// index of the trace where the transition's predicate holds —
// documentation for each learned edge.
func (m *Model) Explain(tr *trace.Trace) (map[string]int, error) {
	witness := map[string]int{}
	for _, sym := range m.Automaton.Symbols() {
		pr, ok := m.Alphabet[sym]
		if !ok {
			continue
		}
		for step := 0; step < tr.Steps(); step++ {
			holds, err := tr.HoldsAt(pr.Expr, step)
			if err != nil {
				return nil, err
			}
			if holds {
				witness[sym] = step
				break
			}
		}
	}
	return witness, nil
}
