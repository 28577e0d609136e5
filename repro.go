// Package repro is the public API of this reproduction of
// "Learning Concise Models from Long Execution Traces" (Jeppu, Melham,
// Kroening, O'Leary; DAC 2020): passive learning of concise
// finite-state models, with program-synthesized transition predicates,
// from a single long execution trace.
//
// The pipeline is
//
//	trace  →  predicate sequence P  →  automaton
//
// where the predicate sequence is produced by per-window program
// synthesis (internal/synth, internal/predicate) and the automaton by
// a SAT-based minimal-automaton search with segmentation and
// compliance refinement (internal/learn, internal/sat).
//
// Quick start:
//
//	tr := trace.FromEvents([]string{"open", "read", "close", ...})
//	model, err := repro.Learn(tr, repro.LearnOptions{})
//	fmt.Println(model.Automaton.DOT("mymodel"))
//
// The state-merge baselines the paper compares against (kTails, EDSM,
// MINT) are exposed through LearnBaseline. The six benchmark systems
// of the paper's evaluation live under internal/systems and are
// runnable through cmd/tracegen and cmd/repro.
package repro

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/automaton"
	"repro/internal/core"
	"repro/internal/learn"
	"repro/internal/live"
	"repro/internal/pipeline"
	"repro/internal/predicate"
	"repro/internal/statemerge"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Re-exported core types: the trace model and the learned automata.
type (
	// Trace is an execution trace: a sequence of observations of a
	// fixed variable vector.
	Trace = trace.Trace
	// Schema is the observed-variable declaration of a trace.
	Schema = trace.Schema
	// VarDef declares one observed variable.
	VarDef = trace.VarDef
	// NFA is a learned automaton (every state accepting).
	NFA = automaton.NFA
	// Predicate is a synthesized transition predicate.
	Predicate = predicate.Predicate
	// Source is a pull iterator over trace observations: the
	// streaming counterpart of Trace, for learning from files too
	// large to hold in memory (see LearnSource).
	Source = trace.Source
	// Telemetry bundles a run tracer and a metric registry; attach one
	// via LearnOptions.Telemetry to record spans, counters and latency
	// histograms for a learning run. Nil disables recording.
	Telemetry = pipeline.Telemetry
	// Tracer emits hierarchical run/stage/unit spans as NDJSON.
	Tracer = pipeline.Tracer
	// Registry holds named counters, gauges and histograms, exportable
	// as Prometheus text and JSON (see ServeMetrics).
	Registry = pipeline.Registry
	// MetricsServer is a live /metrics + /metrics.json + pprof HTTP
	// endpoint over a Registry.
	MetricsServer = pipeline.MetricsServer
	// SamplePolicy bounds a Tracer's per-span-kind emission (see
	// Tracer.SetPolicy); exact per-kind rollups are always kept.
	SamplePolicy = pipeline.SamplePolicy
	// SampleRule is one kind's head/tail/stride sampling budget.
	SampleRule = pipeline.SampleRule
	// Profiler captures pprof evidence when an observed operation
	// exceeds its latency budget; attach via Telemetry.Profiler.
	Profiler = pipeline.Profiler
	// Health derives liveness (progress stall, divergence rate) from
	// watched registry counters and backs /healthz.
	Health = pipeline.Health
	// Manifest is the per-run artifact written by -manifest: config,
	// stage metrics, histogram summaries, model statistics, digests.
	Manifest = pipeline.Manifest
)

// Telemetry constructors and helpers, re-exported for embedders.
var (
	// NewTracer starts an NDJSON trace on w.
	NewTracer = pipeline.NewTracer
	// NewRegistry returns an empty metric registry.
	NewRegistry = pipeline.NewRegistry
	// ServeMetrics starts the metrics/pprof HTTP listener on addr.
	ServeMetrics = pipeline.ServeMetrics
	// DefaultSamplePolicy is the bounded-emission policy commands apply
	// to high-cardinality span kinds (window, solve).
	DefaultSamplePolicy = pipeline.DefaultSamplePolicy
	// NewProfiler returns a latency-budget-triggered pprof capturer.
	NewProfiler = pipeline.NewProfiler
	// NewHealth returns a Health that reports stalled after the given
	// flat period of every watched progress counter.
	NewHealth = pipeline.NewHealth
	// ReadManifest parses and validates a run manifest.
	ReadManifest = pipeline.ReadManifest
	// FileDigest hashes an input file for a manifest's inputs section.
	FileDigest = pipeline.FileDigest
)

// Streaming decoders for the on-disk trace formats; each reads
// observations one at a time, so LearnSource runs in memory bounded by
// the window size and the number of distinct windows, not the trace
// length.
var (
	// NewCSVSource streams the tool's CSV trace format.
	NewCSVSource = trace.NewCSVSource
	// NewEventsSource streams a one-event-per-line log.
	NewEventsSource = trace.NewEventsSource
	// NewVCDSource streams the value changes of a VCD waveform.
	NewVCDSource = trace.NewVCDSource
	// NewFtraceSource streams an ftrace-style scheduler log.
	NewFtraceSource = trace.NewFtraceSource
	// NewTraceSource adapts an in-memory Trace to Source.
	NewTraceSource = trace.NewTraceSource
)

// LearnOptions tunes the full pipeline. The zero value reproduces the
// paper's configuration: observation window 3 (2 for pure event
// traces), segment window 3, compliance length 2, minimal search from
// 2 states, segmentation on.
type LearnOptions struct {
	// PredicateWindow is the observation window w used for
	// transition-predicate synthesis (Algorithm 1,
	// GeneratePredicate). Zero selects the schema default.
	PredicateWindow int
	// SegmentWindow is the window w used to segment the predicate
	// sequence for model construction. Zero means 3.
	SegmentWindow int
	// ComplianceLen is the compliance-check sequence length l. Zero
	// means 2.
	ComplianceLen int
	// StartStates is the initial automaton size N. Zero means 2.
	StartStates int
	// MaxStates caps the search. Zero means 64.
	MaxStates int
	// NonSegmented disables trace segmentation in model
	// construction (the paper's full-trace baseline).
	NonSegmented bool
	// NoSymmetryBreaking disables the state-ordering symmetry break
	// in the SAT encoding (ablation).
	NoSymmetryBreaking bool
	// Timeout bounds the model-construction search.
	Timeout time.Duration
	// Synth tunes the predicate synthesizer.
	Synth synth.Options
	// Telemetry attaches a run tracer and metric registry to the
	// pipeline (see Telemetry). Nil disables all recording at
	// near-zero cost; telemetry never changes learned models.
	Telemetry *Telemetry
	// Context cancels the run at safe boundaries (between
	// observations during streaming ingestion, inside predicate
	// synthesis, between solver rounds during model construction).
	// Cancellation surfaces as an "interrupted at stage X" error. Nil
	// means never cancelled.
	Context context.Context
}

// Model is a learned model: the automaton, its predicate alphabet, the
// intermediate predicate sequence, and the monitoring interface
// (Check, Explain) of internal/core.
type Model = core.Model

// Violation is the first unexplained behaviour found by Model.Check.
type Violation = core.Violation

// StateInvariant is a candidate per-state invariant extracted by
// Model.StateInvariants (the paper's invariant-synthesis prospect).
type StateInvariant = core.StateInvariant

// Live model maintenance over unbounded streams (see internal/live):
// a LiveMaintainer, built with Pipeline.NewMaintainer and driven by
// Pipeline.MaintainSource, keeps the learned model current as a
// followed trace grows — fast-path acceptance checks, incremental
// solver extension, policy-driven re-minimization — with a bounded
// version history and structured divergence events.
type (
	LiveMaintainer = live.Maintainer
	LiveOptions    = live.Options
	LiveVersion    = live.Version
	LiveDivergence = live.Divergence
)

// NewFollowReader wraps a growing file for live monitoring: it polls
// across EOF and only surfaces whole lines (see trace.FollowReader).
var NewFollowReader = trace.NewFollowReader

// FollowOptions tunes NewFollowReader.
type FollowOptions = trace.FollowOptions

// Sentinel errors re-exported from the pipeline stages.
var (
	// ErrTimeout reports that LearnOptions.Timeout elapsed.
	ErrTimeout = learn.ErrTimeout
	// ErrNoAutomaton reports that no automaton within MaxStates
	// satisfies the constraints.
	ErrNoAutomaton = learn.ErrNoAutomaton
)

// Learn runs the paper's full pipeline on a trace: predicate synthesis
// over sliding windows, then SAT-based model construction with
// segmentation.
func Learn(tr *Trace, opts LearnOptions) (*Model, error) {
	if tr == nil || tr.Len() < 2 {
		return nil, errors.New("repro: trace must have at least 2 observations")
	}
	p, err := NewPipeline(tr.Schema(), opts)
	if err != nil {
		return nil, err
	}
	return p.Learn(tr)
}

// Pipeline is a reusable learner over one trace schema: learning
// several traces of the same system through one Pipeline yields a
// consistent predicate alphabet, and its models can Check fresh
// traces (the paper's monitoring application).
type Pipeline = core.Pipeline

// NewPipeline builds a Pipeline for the schema with the given options.
func NewPipeline(schema *Schema, opts LearnOptions) (*Pipeline, error) {
	if schema == nil {
		return nil, errors.New("repro: nil schema")
	}
	return core.NewPipeline(schema, core.Options{
		Predicate: predicate.Options{
			Window: opts.PredicateWindow,
			Synth:  opts.Synth,
		},
		Learn: learn.Options{
			Window:             opts.SegmentWindow,
			ComplianceLen:      opts.ComplianceLen,
			StartStates:        opts.StartStates,
			MaxStates:          opts.MaxStates,
			Segmented:          !opts.NonSegmented,
			Timeout:            opts.Timeout,
			NoSymmetryBreaking: opts.NoSymmetryBreaking,
		},
		Telemetry: opts.Telemetry,
		Context:   opts.Context,
	})
}

// LearnSource runs the paper's full pipeline on a streamed trace:
// bounded-memory predicate synthesis over a sliding window, then
// SAT-based model construction from the run-length-encoded predicate
// sequence. The learned automaton is byte-identical to Learn over the
// same observations; the model's P field is nil because the expanded
// predicate sequence is never materialised.
func LearnSource(src Source, opts LearnOptions) (*Model, error) {
	if src == nil {
		return nil, errors.New("repro: nil source")
	}
	p, err := NewPipeline(src.Schema(), opts)
	if err != nil {
		return nil, err
	}
	return p.LearnSource(src)
}

// LearnEvents is a convenience wrapper learning directly from an event
// sequence (predicates are the event guards).
func LearnEvents(events []string, opts LearnOptions) (*Model, error) {
	return Learn(trace.FromEvents(events), opts)
}

// LearnTraces learns one model from several runs of the same system
// (shared schema and predicate alphabet; the model accepts every run
// from its initial state).
func LearnTraces(trs []*Trace, opts LearnOptions) (*Model, error) {
	if len(trs) == 0 {
		return nil, errors.New("repro: no traces")
	}
	p, err := NewPipeline(trs[0].Schema(), opts)
	if err != nil {
		return nil, err
	}
	return p.LearnAll(trs)
}

// SaveModel serialises a learned model (automaton, predicate alphabet,
// schema, and the synthesizer seeds that keep fresh-trace abstraction
// consistent) in a human-readable text format.
func SaveModel(w io.Writer, m *Model) error { return core.WriteModel(w, m) }

// LoadModel deserialises a model written by SaveModel. The loaded
// model supports Check and Explain exactly like the original.
func LoadModel(r io.Reader) (*Model, error) { return core.ReadModel(r) }

// Baseline selects a state-merge algorithm for LearnBaseline.
type Baseline int

// The three baselines of the paper's Table II comparison.
const (
	KTails Baseline = iota
	EDSM
	MINT
)

// String names the baseline.
func (b Baseline) String() string {
	switch b {
	case KTails:
		return "ktails"
	case EDSM:
		return "edsm"
	case MINT:
		return "mint"
	default:
		return fmt.Sprintf("Baseline(%d)", int(b))
	}
}

// BaselineOptions tunes LearnBaseline.
type BaselineOptions struct {
	// K is the kTails horizon (KTails only). Zero means 2.
	K int
	// EvidenceThreshold is the EDSM/MINT minimum merge score. Zero
	// means 1.
	EvidenceThreshold int
	// Timeout bounds the run.
	Timeout time.Duration
}

// BaselineResult is a state-merge outcome.
type BaselineResult struct {
	Automaton *NFA
	States    int
	Merges    int
	Duration  time.Duration
}

// LearnBaseline runs one of the state-merge baselines on raw trace
// tokens — the same input MINT consumes in the paper's comparison.
func LearnBaseline(b Baseline, words [][]string, opts BaselineOptions) (*BaselineResult, error) {
	smOpts := statemerge.Options{
		K:                 opts.K,
		EvidenceThreshold: opts.EvidenceThreshold,
		Timeout:           opts.Timeout,
	}
	var (
		res *statemerge.Result
		err error
	)
	switch b {
	case KTails:
		res, err = statemerge.KTails(words, smOpts)
	case EDSM:
		res, err = statemerge.EDSM(words, smOpts)
	case MINT:
		res, err = statemerge.MINT(words, smOpts)
	default:
		return nil, fmt.Errorf("repro: unknown baseline %d", b)
	}
	if err != nil {
		if errors.Is(err, statemerge.ErrTimeout) {
			return nil, fmt.Errorf("repro: baseline %s: %w", b, ErrTimeout)
		}
		return nil, err
	}
	return &BaselineResult{
		Automaton: res.Automaton,
		States:    res.States,
		Merges:    res.Merges,
		Duration:  res.Duration,
	}, nil
}

// Tokenize renders a trace as raw tokens for the baselines: event
// traces become their event sequence; other traces render each
// observation as a "name=value" tuple token, exactly the view a
// state-merge tool has without predicate synthesis.
func Tokenize(tr *Trace) []string {
	if evs, err := tr.Events(); err == nil && tr.Schema().Len() == 1 {
		return evs
	}
	out := make([]string, tr.Len())
	for i := 0; i < tr.Len(); i++ {
		tok := ""
		for j := 0; j < tr.Schema().Len(); j++ {
			if j > 0 {
				tok += ","
			}
			tok += tr.Schema().Var(j).Name + "=" + tr.At(i)[j].String()
		}
		out[i] = tok
	}
	return out
}
