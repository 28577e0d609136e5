package main

import (
	"errors"
	"fmt"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/pipeline"
	"repro/internal/predicate"
	"repro/internal/trace"
)

// opTimeout is the deadline of every learn, check and live replay: the
// model search runs under LearnOptions.Timeout (per revision for live
// models) and the live replay is cut once it has run this long. A seed
// that makes the solver blow up then shows as a failed operation.
const opTimeout = 60 * time.Second

var errDeadline = errors.New("operation deadline exceeded")

// learnOptions is the paper's configuration (the zero value) with the
// deadline and, for traced iterations, telemetry.
func learnOptions(tel *pipeline.Telemetry) repro.LearnOptions {
	return repro.LearnOptions{Timeout: opTimeout, Telemetry: tel}
}

// iteration records one closed-loop pass over a workload.
type iteration struct {
	// ops counts the learn, check and live feed operations of the pass.
	ops          int
	learn, check time.Duration
	// revise holds the latency of every operation that ran the SAT
	// solver: each learn call, and each live Feed call whose solver
	// call count moved.
	revise []time.Duration
	// saved maps model names to their saved bytes.
	saved  map[string][]byte
	layers layerSet // traced iterations only
}

// workload is one named benchmark input set. setup builds its inputs,
// iterate runs one pass (tel is nil for untraced passes), verify runs
// the independent model checks on the last pass's models, and decode
// runs the decode-only pass over the learned inputs.
type workload interface {
	setup(dir string, seed int64) error
	iterate(tel *pipeline.Telemetry) (*iteration, error)
	verify(seed int64) error
	decode() (decodeStats, error)
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "ingest":
		return &ingest{}, nil
	case "paper-six":
		return &paperSix{}, nil
	case "live-serial":
		return &liveSerial{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (ingest, paper-six, live-serial)", name)
}

// ---- ingest ----------------------------------------------------------

// ingest learns a 2M-row integrator CSV and a scheduler ftrace log from
// disk with LearnSource, then checks the CSV against its model.
type ingest struct {
	in     ingestInputs
	models map[string]*streamed
}

// streamed is a model learned from a file, with what replaying its
// input needs.
type streamed struct {
	pipe  *core.Pipeline
	model *core.Model
	open  func() (*trace.Bytes, trace.Source, error)
}

func (w *ingest) setup(dir string, seed int64) (err error) {
	w.in, err = writeIngestInputs(dir, seed)
	return err
}

func (w *ingest) openCSV() (*trace.Bytes, trace.Source, error) {
	b, err := trace.OpenBytes(w.in.csvPath)
	if err != nil {
		return nil, nil, err
	}
	src, err := trace.NewCSVSource(b)
	if err != nil {
		b.Close()
		return nil, nil, err
	}
	return b, src, nil
}

func (w *ingest) openFtrace() (*trace.Bytes, trace.Source, error) {
	b, err := trace.OpenBytes(w.in.ftracePath)
	if err != nil {
		return nil, nil, err
	}
	return b, trace.NewFtraceSource(b, w.in.task, nil), nil
}

// learnFile opens, learns and closes one input; the returned duration
// covers all three.
func learnFile(open func() (*trace.Bytes, trace.Source, error), tel *pipeline.Telemetry) (*streamed, time.Duration, error) {
	t0 := time.Now()
	b, src, err := open()
	if err != nil {
		return nil, 0, err
	}
	defer b.Close()
	p, err := repro.NewPipeline(src.Schema(), learnOptions(tel))
	if err != nil {
		return nil, 0, err
	}
	m, err := p.LearnSource(src)
	if err != nil {
		return nil, 0, err
	}
	return &streamed{pipe: p, model: m, open: open}, time.Since(t0), nil
}

func (w *ingest) iterate(tel *pipeline.Telemetry) (*iteration, error) {
	it := &iteration{saved: map[string][]byte{}, layers: layerSet{}}
	w.models = map[string]*streamed{}
	for _, in := range []struct {
		name string
		open func() (*trace.Bytes, trace.Source, error)
	}{{"integrator.csv", w.openCSV}, {"rtlinux.ftrace", w.openFtrace}} {
		s, d, err := learnFile(in.open, tel)
		if err != nil {
			return nil, fmt.Errorf("learn %s: %w", in.name, err)
		}
		it.learn += d
		it.revise = append(it.revise, d)
		it.layers.addModel(s.model, d)
		if it.saved[in.name], err = modelBytes(s.model); err != nil {
			return nil, err
		}
		w.models[in.name] = s
	}

	t0 := time.Now()
	b, src, err := w.openCSV()
	if err != nil {
		return nil, err
	}
	v, err := w.models["integrator.csv"].model.CheckSource(src)
	b.Close()
	it.check = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("check integrator.csv: %w", err)
	}
	if v != nil {
		return nil, fmt.Errorf("check integrator.csv: %v", v)
	}
	it.layers["core.check_s"] = it.check.Seconds()
	it.ops = 3
	return it, nil
}

func (w *ingest) verify(seed int64) error {
	for _, name := range []string{"integrator.csv", "rtlinux.ftrace"} {
		s := w.models[name]
		if err := checkModel(name, s.model.Automaton, s.runs(), seed); err != nil {
			return err
		}
	}
	return nil
}

// runs replays the model's input through its own pipeline's predicate
// generator (already holding every window, so nothing is synthesised).
func (s *streamed) runs() runSource {
	return func(emit func(string, int) error) error {
		b, src, err := s.open()
		if err != nil {
			return err
		}
		defer b.Close()
		return s.pipe.Generator().SequenceSource(src, func(r predicate.Run) error {
			return emit(r.Pred.Key, r.Count)
		})
	}
}

func (w *ingest) decode() (decodeStats, error) {
	var total decodeStats
	for _, open := range []func() (*trace.Bytes, trace.Source, error){w.openCSV, w.openFtrace} {
		b, src, err := open()
		if err != nil {
			return total, err
		}
		d, err := decodePass(src, int64(b.Len()))
		b.Close()
		if err != nil {
			return total, err
		}
		total.add(d)
	}
	return total, nil
}

// ---- paper-six -------------------------------------------------------

// paperSix batch-learns the paper's six systems from in-memory traces
// with Pipeline.Learn, then checks each trace against its model.
type paperSix struct {
	systems []sixSystem
	models  []*core.Model
}

func (w *paperSix) setup(_ string, seed int64) (err error) {
	w.systems, err = buildSix(seed)
	return err
}

func (w *paperSix) iterate(tel *pipeline.Telemetry) (*iteration, error) {
	it := &iteration{saved: map[string][]byte{}, layers: layerSet{}}
	w.models = make([]*core.Model, len(w.systems))
	for i, sys := range w.systems {
		t0 := time.Now()
		p, err := repro.NewPipeline(sys.tr.Schema(), learnOptions(tel))
		if err != nil {
			return nil, err
		}
		m, err := p.Learn(sys.tr)
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("learn %s: %w", sys.name, err)
		}
		it.learn += d
		it.revise = append(it.revise, d)
		it.layers.addModel(m, d)
		if it.saved[sys.name], err = modelBytes(m); err != nil {
			return nil, err
		}
		w.models[i] = m
	}
	for i, sys := range w.systems {
		t0 := time.Now()
		v, err := w.models[i].Check(sys.tr)
		it.check += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("check %s: %w", sys.name, err)
		}
		if v != nil {
			return nil, fmt.Errorf("check %s: %v", sys.name, v)
		}
	}
	it.layers["core.check_s"] = it.check.Seconds()
	it.ops = 2 * len(w.systems)
	return it, nil
}

func (w *paperSix) verify(seed int64) error {
	for i, sys := range w.systems {
		if err := checkModel(sys.name, w.models[i].Automaton, wordSource(w.models[i].P), seed); err != nil {
			return err
		}
	}
	return nil
}

// decode is empty: paper-six learns from in-memory traces.
func (w *paperSix) decode() (decodeStats, error) { return decodeStats{}, nil }

// ---- live-serial -----------------------------------------------------

// liveSerial replays a serial CSV stream through the predicate
// generator into a live model maintainer as fast as it is consumed, the
// way monitor -live catches up on a file, then checks the stream
// against the final live model.
// liveChecks is how many times a live-serial pass checks the stream.
const liveChecks = 5

type liveSerial struct {
	data  []byte
	pipe  *core.Pipeline
	model *core.Model
	saved []byte
}

func (w *liveSerial) setup(_ string, seed int64) (err error) {
	w.data, err = serialStream(seed)
	return err
}

func (w *liveSerial) source() (trace.Source, error) {
	return trace.NewCSVSource(trace.NewBytes(w.data))
}

func (w *liveSerial) iterate(tel *pipeline.Telemetry) (*iteration, error) {
	it := &iteration{saved: map[string][]byte{}, layers: layerSet{}}
	src, err := w.source()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	p, err := repro.NewPipeline(src.Schema(), learnOptions(tel))
	if err != nil {
		return nil, err
	}
	m, err := p.NewMaintainer(live.Options{})
	if err != nil {
		return nil, err
	}
	var feedTime, reviseTime time.Duration
	feeds, revisions := 0, 0
	s0 := time.Now()
	err = p.Generator().SequenceSource(src, func(r predicate.Run) error {
		calls := m.Stats().SolverCalls
		f0 := time.Now()
		err := m.Feed(r)
		d := time.Since(f0)
		feeds++
		feedTime += d
		if m.Stats().SolverCalls != calls {
			revisions++
			reviseTime += d
			it.revise = append(it.revise, d)
		}
		if err == nil && time.Since(t0) > opTimeout {
			err = errDeadline
		}
		return err
	})
	s1 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("live replay: %w", err)
	}
	if err := m.Finish(); err != nil {
		return nil, fmt.Errorf("live replay: %w", err)
	}
	lm, err := p.LiveModel(m)
	if err != nil {
		return nil, err
	}
	it.learn = time.Since(t0)
	gs := p.Generator().Stats()
	if it.saved["live serial"], err = modelBytes(lm); err != nil {
		return nil, err
	}
	w.pipe, w.model, w.saved = p, lm, it.saved["live serial"]

	// One check takes about 60 ms, so a pass makes several and reports
	// their mean.
	for i := 0; i < liveChecks; i++ {
		if src, err = w.source(); err != nil {
			return nil, err
		}
		c0 := time.Now()
		v, err := lm.CheckSource(src)
		it.check += time.Since(c0)
		if err != nil {
			return nil, fmt.Errorf("check live model: %w", err)
		}
		if v != nil {
			return nil, fmt.Errorf("check live model: %v", v)
		}
	}
	it.check /= liveChecks

	it.ops = feeds + liveChecks
	l := it.layers
	l.addPredicateStats(gs.Windows, gs.UniqueWindows, gs.MemoHits, gs.SynthCalls, gs.SeedHits)
	l["predicate.s"] = (s1.Sub(s0) - feedTime).Seconds()
	l["predicate.runs"] = float64(feeds)
	l["core.self_s"] = (it.learn - s1.Sub(s0)).Seconds()
	l["core.check_s"] = it.check.Seconds()
	st := m.Stats()
	l["learn.s"] = st.Duration.Seconds()
	l["learn.segments"] = float64(st.Segments)
	l["learn.solver_calls"] = float64(st.SolverCalls)
	l["learn.refinements"] = float64(st.Refinements)
	l["learn.accept_refinements"] = float64(st.AcceptRefinements)
	l["learn.states"] = float64(st.FinalStates)
	l["sat.conflicts"] = float64(st.SATConflicts)
	l["sat.propagations"] = float64(st.SATPropagations)
	l["sat.learned"] = float64(st.SATLearned)
	divergences, _ := m.Divergences()
	l["live.s"] = feedTime.Seconds()
	l["live.feeds"] = float64(feeds)
	l["live.revisions"] = float64(revisions)
	l["live.revise_s"] = reviseTime.Seconds()
	l["live.versions"] = float64(m.Version())
	l["live.divergences"] = float64(divergences)
	return it, nil
}

// verify checks the last live model and compares its saved bytes with a
// batch LearnSource over the same stream.
func (w *liveSerial) verify(seed int64) error {
	runs := func(emit func(string, int) error) error {
		src, err := w.source()
		if err != nil {
			return err
		}
		return w.pipe.Generator().SequenceSource(src, func(r predicate.Run) error {
			return emit(r.Pred.Key, r.Count)
		})
	}
	if err := checkModel("live serial", w.model.Automaton, runs, seed); err != nil {
		return err
	}
	src, err := w.source()
	if err != nil {
		return err
	}
	ref, err := repro.LearnSource(src, learnOptions(nil))
	if err != nil {
		return fmt.Errorf("batch reference: %w", err)
	}
	want, err := modelBytes(ref)
	if err != nil {
		return err
	}
	return checkSame("live serial", w.saved, want)
}

func (w *liveSerial) decode() (decodeStats, error) {
	src, err := w.source()
	if err != nil {
		return decodeStats{}, err
	}
	return decodePass(src, int64(len(w.data)))
}
