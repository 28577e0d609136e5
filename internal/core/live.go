// Live-maintenance wiring: MaintainSource drives an unbounded trace
// source through the predicate generator into a live.Maintainer, the
// streaming counterpart of LearnSource that never waits for
// end-of-stream to learn. The maintainer's model after any prefix is
// byte-identical to LearnSource over that prefix (same generator, same
// sequence, same canonical search — see internal/live).
package core

import (
	"errors"

	"repro/internal/live"
	"repro/internal/trace"
)

// NewMaintainer returns a live model maintainer bound to this
// pipeline's learn configuration (options, context, telemetry), ready
// to be fed by MaintainSource.
func (p *Pipeline) NewMaintainer(opts live.Options) (*live.Maintainer, error) {
	opts.Learn = p.opts.Learn
	if opts.Telemetry == nil {
		opts.Telemetry = p.opts.Telemetry
	}
	return live.NewMaintainer(opts)
}

// MaintainSource streams src through the pipeline's predicate
// generator into the maintainer, revising the model as runs arrive,
// until the source ends (for a followed file: its follower's idle exit
// or context cancellation). On a clean end the maintainer's model
// covers the entire consumed stream.
func (p *Pipeline) MaintainSource(src trace.Source, m *live.Maintainer) error {
	if err := p.gen.SequenceSource(src, m.Feed); err != nil {
		return p.interrupted("predicate", err)
	}
	return m.Finish()
}

// LiveModel wraps the maintainer's current automaton as a Model bound
// to this pipeline, so the live result can be persisted with
// WriteModel and checked against further traces exactly like a batch
// model. The model file is byte-identical to the one a batch relearn
// over the same stream would save.
func (p *Pipeline) LiveModel(m *live.Maintainer) (*Model, error) {
	a := m.Model()
	if a == nil {
		return nil, errors.New("core: live maintainer has no model yet")
	}
	st := m.Stats()
	return &Model{
		Automaton:      a,
		Alphabet:       m.Alphabet(),
		States:         st.FinalStates,
		PredicateStats: p.gen.Stats(),
		LearnStats:     st,
		pipeline:       p,
	}, nil
}
