// Package active closes the learning loop the paper leaves open: the
// learned model interrogates the system it was learned from. Starting
// from a hypothesis learned on a (possibly truncated) trace, each
// round drives the system's canonical workload schedule further than
// before, checks the hypothesis against the observed probe trace,
// folds the probe back through the streaming learner
// (core.LearnSources), and asks the SAT engine for a distinguishing
// word between the successive hypotheses (see distinguish.go). The
// loop reaches its fixpoint when a full-budget probe conforms and no
// distinguishing word up to the configured depth exists — a bounded
// conformance certificate in the sense of the authors' follow-up work
// on active model learning.
//
// Because probes replay the same deterministic schedule from reset,
// every probe is a prefix extension of the canonical benchmark trace;
// the predicate generator therefore synthesizes windows in the same
// order a passive run over the full trace would, and the stabilized
// model is byte-identical to the passively learned one.
package active

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/pipeline"
	"repro/internal/systems"
	"repro/internal/trace"
)

// Options tunes the refinement loop. Zero values select defaults.
type Options struct {
	// Depth bounds the distinguishing-word search between successive
	// hypotheses (default 8).
	Depth int
	// MaxRounds bounds the number of probe rounds (default 16).
	MaxRounds int
	// ProbeStart is the first probe's length in observations
	// (default: twice the seed trace, at least 16).
	ProbeStart int
	// ProbeCap is the probe length budget; the loop only stabilizes
	// once a cap-length probe conforms (default: eight times the seed
	// trace, at least 1024).
	ProbeCap int
	// Seed selects the schedule seed (0 = the system's default).
	Seed int64
}

// withDefaults fills in zero fields from the seed trace length.
func (o Options) withDefaults(seedLen int) Options {
	if o.Depth <= 0 {
		o.Depth = 8
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 16
	}
	if o.ProbeCap <= 0 {
		o.ProbeCap = 8 * seedLen
		if o.ProbeCap < 1024 {
			o.ProbeCap = 1024
		}
	}
	if o.ProbeStart <= 0 {
		o.ProbeStart = 2 * seedLen
		if o.ProbeStart < 16 {
			o.ProbeStart = 16
		}
	}
	if o.ProbeStart > o.ProbeCap {
		o.ProbeStart = o.ProbeCap
	}
	return o
}

// Verdict is the outcome of checking one probe trace against a
// hypothesis: either the model explains the whole probe, or it
// diverges at a step, reported with the surrounding symbol context.
type Verdict struct {
	// Conforms is true when the model explains the whole probe.
	Conforms bool
	// Step is the predicate-sequence index of the divergence.
	Step int
	// Predicate is the unexplained predicate at Step.
	Predicate string
	// KnownSymbol reports whether the predicate occurs elsewhere in
	// the model (known behaviour in an unexpected context) or is
	// entirely novel.
	KnownSymbol bool
	// Witness is the symbol sequence ending at the divergence (up to
	// witnessContext symbols of context plus the unexplained one).
	Witness []string
}

// witnessContext is how many explained symbols of context a divergence
// witness carries.
const witnessContext = 4

// String renders the verdict as the conformance line cmd/monitor and
// cmd/probe print.
func (v *Verdict) String() string {
	if v.Conforms {
		return "conforms"
	}
	kind := "novel behaviour"
	if v.KnownSymbol {
		kind = "known behaviour in unexpected context"
	}
	return fmt.Sprintf("diverges at step %d (%s): %v", v.Step, kind, v.Witness)
}

// Conformance checks a probe trace against the model and reports the
// verdict. The probe is abstracted with the model's own predicate
// generator, so divergences are located in the model's alphabet.
func Conformance(m *core.Model, probe *trace.Trace) (*Verdict, error) {
	P, err := m.Abstract(probe)
	if err != nil {
		return nil, err
	}
	known := map[string]bool{}
	for _, sym := range m.Automaton.Symbols() {
		known[sym] = true
	}
	cur := m.Automaton.Initial()
	for i, sym := range P {
		next, ok := m.Automaton.Step(cur, sym)
		if !ok {
			lo := i - witnessContext
			if lo < 0 {
				lo = 0
			}
			return &Verdict{
				Step:        i,
				Predicate:   sym,
				KnownSymbol: known[sym],
				Witness:     append([]string(nil), P[lo:i+1]...),
			}, nil
		}
		cur = next
	}
	return &Verdict{Conforms: true}, nil
}

// Round reports one probe round.
type Round struct {
	// Round is the 1-based round number.
	Round int
	// ProbeLen is the probe length (observations) of this round.
	ProbeLen int
	// Verdict is the conformance check of the probe against the
	// round's starting hypothesis.
	Verdict *Verdict
	// Relearned reports whether folding the probe changed the
	// hypothesis automaton. A conforming probe's fold is a no-op (the
	// previous model remains the lexicographically least solution of
	// the grown constraint set), so this tracks real refinements.
	Relearned bool
	// States is the hypothesis state count after the round.
	States int
	// Distinction is the shortest distinguishing word between the
	// round's starting and ending hypotheses; nil when the hypothesis
	// is stable up to the search depth.
	Distinction *Distinction
	// WitnessOutcome reports what happened when the distinguishing
	// word was driven back into the system as a targeted probe:
	// "realized" (the system exhibits it — the old hypothesis was
	// incomplete) or "refused at step K" (the system rejects it — the
	// surviving hypothesis overapproximates). Empty when the word
	// could not be concretised into inputs (non-event systems).
	WitnessOutcome string
	// Wall is the round's wall-clock time.
	Wall time.Duration
}

// Result is the outcome of a refinement run.
type Result struct {
	// Model is the final hypothesis.
	Model *core.Model
	// Rounds are the per-round reports, in order.
	Rounds []Round
	// Stabilized reports whether the fixpoint was reached: a
	// cap-length probe conformed and no distinguishing word up to
	// Depth separates the last two hypotheses. False means the round
	// budget ran out first.
	Stabilized bool
	// FinalProbeLen is the last probe length driven.
	FinalProbeLen int
}

// Refine runs the counterexample-guided refinement loop: learn a
// hypothesis from the seed trace, then probe / check / fold until the
// fixpoint or the round budget. The pipeline options control the
// learner (learn options, telemetry, context).
func Refine(sys systems.Scheduler, seed *trace.Trace, copts core.Options, opts Options) (*Result, error) {
	if seed == nil || seed.Len() < 2 {
		return nil, errors.New("active: seed trace must have at least 2 observations")
	}
	if !seed.Schema().Equal(sys.Schema()) {
		return nil, fmt.Errorf("active: seed schema %v does not match system %s schema %v",
			seed.Schema().Names(), sys.Name(), sys.Schema().Names())
	}
	opts = opts.withDefaults(seed.Len())
	pl, err := core.NewPipeline(seed.Schema(), copts)
	if err != nil {
		return nil, err
	}
	tel := copts.Telemetry
	ttr := tel.Trace()
	cRounds := tel.Count("active_rounds_total")
	cDiverged := tel.Count("active_divergences_total")
	cStable := tel.Count("active_stabilized_total")
	cProbeObs := tel.Count("active_probe_observations_total")
	hDistLen := tel.Hist("active_distinguishing_len", "symbols")
	hRound := tel.Hist("active_round", "ns")

	model, err := pl.LearnSource(trace.NewTraceSource(seed))
	if err != nil {
		return nil, fmt.Errorf("active: seed learn: %w", err)
	}

	res := &Result{}
	probeLen := opts.ProbeStart
	for r := 1; r <= opts.MaxRounds; r++ {
		t0 := time.Now()
		span := ttr.Start(0, "probe_round", pipeline.Int("round", int64(r)), pipeline.Int("probe_len", int64(probeLen)))
		probe, err := systems.DriveSchedule(sys, opts.Seed, probeLen)
		if err != nil {
			ttr.End(span)
			return nil, fmt.Errorf("active: round %d: %w", r, err)
		}
		cProbeObs.Add(int64(probe.Len()))
		verdict, err := Conformance(model, probe)
		if err != nil {
			ttr.End(span)
			return nil, fmt.Errorf("active: round %d: conformance: %w", r, err)
		}
		prev := model
		if !verdict.Conforms {
			cDiverged.Add(1)
		}
		// Fold every probe, conforming or not. A conforming probe's
		// windows are already explained, so its fold returns the
		// byte-identical automaton (the previous model stays the
		// lex-least solution of the grown constraint set); a diverging
		// probe's fold is the refinement step. Always folding means the
		// stabilized hypothesis was learned from [seed, cap-length
		// probe] — the same constraint set a passive learn over the full
		// canonical trace produces.
		model, err = pl.LearnSources([]trace.Source{trace.NewTraceSource(seed), trace.NewTraceSource(probe)})
		if err != nil {
			ttr.End(span)
			return nil, fmt.Errorf("active: round %d: fold relearn: %w", r, err)
		}
		relearned := model.Automaton.String() != prev.Automaton.String()
		dist, err := Distinguish(prev.Automaton, model.Automaton, opts.Depth)
		if err != nil {
			ttr.End(span)
			return nil, fmt.Errorf("active: round %d: %w", r, err)
		}
		outcome := ""
		if dist != nil {
			hDistLen.Observe(int64(len(dist.Word)))
			outcome = probeWitness(sys, model, dist.Word)
		}
		round := Round{
			Round:          r,
			ProbeLen:       probe.Len(),
			Verdict:        verdict,
			Relearned:      relearned,
			States:         model.States,
			Distinction:    dist,
			WitnessOutcome: outcome,
			Wall:           time.Since(t0),
		}
		res.Rounds = append(res.Rounds, round)
		cRounds.Add(1)
		hRound.Since(t0)
		ttr.End(span,
			pipeline.Bool("conforms", verdict.Conforms),
			pipeline.Bool("relearned", relearned),
			pipeline.Int("states", int64(model.States)),
			pipeline.Int("dist_len", distLen(dist)))

		if verdict.Conforms && !relearned && dist == nil && probe.Len() >= opts.ProbeCap {
			res.Stabilized = true
			cStable.Add(1)
		}
		res.FinalProbeLen = probe.Len()
		if res.Stabilized {
			break
		}
		// Grow the probe: double, but never land short of just past a
		// divergence point, and never past the cap.
		next := 2 * probeLen
		if !verdict.Conforms && verdict.Step+seedMargin(seed) > next {
			next = verdict.Step + seedMargin(seed)
		}
		if next > opts.ProbeCap {
			next = opts.ProbeCap
		}
		probeLen = next
	}
	res.Model = model
	return res, nil
}

// seedMargin is how far past a divergence the next probe must reach so
// the fold covers the diverging window with context.
func seedMargin(seed *trace.Trace) int {
	m := seed.Len() / 4
	if m < 16 {
		m = 16
	}
	return m
}

// distLen is the span attribute for a possibly-nil distinction.
func distLen(d *Distinction) int64 {
	if d == nil {
		return 0
	}
	return int64(len(d.Word))
}

// probeWitness concretises a distinguishing word into an input
// sequence and drives it against the system from reset — the
// "synthesized test case" half of active testing. Only event-schema
// systems admit the mapping (their predicate alphabet constrains the
// event variable directly); for others it returns "".
func probeWitness(sys systems.Scheduler, m *core.Model, word []string) string {
	inputs, ok := witnessInputs(m, sys, word)
	if !ok {
		return ""
	}
	if _, err := systems.Drive(sys, inputs); err != nil {
		// How far the system followed before refusing.
		for k := range inputs {
			if _, err := systems.Drive(sys, inputs[:k+1]); err != nil {
				return fmt.Sprintf("refused at step %d", k)
			}
		}
		return "refused at step 0"
	}
	return "realized"
}

// pairEnv evaluates an event-trace predicate against a candidate
// (event, event') pair.
type pairEnv struct {
	name      string
	cur, next string
}

// Lookup implements expr.Env.
func (e pairEnv) Lookup(name string, primed bool) (expr.Value, bool) {
	if name != e.name {
		return expr.Value{}, false
	}
	if primed {
		return expr.SymVal(e.next), true
	}
	return expr.SymVal(e.cur), true
}

// witnessInputs searches for an input sequence whose predicate
// abstraction is the given word: events e_0 … e_d such that word[i]
// holds on the pair (e_i, e_{i+1}). Only single-symbol-variable
// (event) schemas are attempted; candidates are tried in the system's
// input order, so the result is deterministic.
func witnessInputs(m *core.Model, sys systems.Probeable, word []string) ([]string, bool) {
	sch := sys.Schema()
	if sch.Len() != 1 || sch.Var(0).Type != expr.Sym {
		return nil, false
	}
	name := sch.Var(0).Name
	cands := sys.Inputs()
	exprs := make([]expr.Expr, len(word))
	for i, sym := range word {
		pr := m.Alphabet[sym]
		if pr == nil {
			return nil, false
		}
		exprs[i] = pr.Expr
	}
	seq := make([]string, len(word)+1)
	var dfs func(i int) bool
	dfs = func(i int) bool {
		if i == len(seq) {
			return true
		}
		for _, c := range cands {
			if i > 0 {
				v, err := exprs[i-1].Eval(pairEnv{name: name, cur: seq[i-1], next: c})
				if err != nil || v.T != expr.Bool || !v.B {
					continue
				}
			}
			seq[i] = c
			if dfs(i + 1) {
				return true
			}
		}
		return false
	}
	if !dfs(0) {
		return nil, false
	}
	return seq, true
}
