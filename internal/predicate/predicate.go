// Package predicate implements the transition-predicate abstraction of
// Algorithm 1 (procedure GeneratePredicate): it turns each sliding
// window of w trace observations into one predicate over X ∪ X′ by
// synthesising, for every non-symbolic variable, the smallest next(X)
// function consistent with the window's steps, and guarding on
// symbolic (event) variables whose value is constant across the
// window.
//
// Two engineering details make this scale to long traces and keep the
// predicate alphabet small, both direct consequences of the paper's
// observation that traces are dominated by repeating patterns:
//
//   - windows with identical observation content are memoised, so each
//     repeated pattern is synthesised once;
//   - previously synthesised next functions are offered to the
//     synthesizer as seeds and reused whenever they already explain a
//     new window, so equivalent behaviour always yields the same
//     predicate text (and therefore the same alphabet symbol).
//
// There is one windowing engine: SequenceSource slides over a
// trace.Source in a single serial pass (stream.go). Sequence collects
// its output for an in-memory trace.
package predicate

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/expr"
	"repro/internal/pipeline"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Predicate is one alphabet symbol of the learned automaton: a boolean
// expression over current and primed trace variables, plus its
// canonical key.
type Predicate struct {
	Expr expr.Expr
	Key  string
}

// Options configures predicate generation.
type Options struct {
	// Window is the observation window size w. Zero selects the
	// default: 3 for schemas with non-symbolic variables (two
	// synthesis examples per window, the paper's choice), 2 for
	// pure event schemas, where predicates are explicit in the
	// trace and need no generalisation (Section III-B applies
	// synthesis only to non-Boolean observations).
	Window int
	// Synth tunes the underlying synthesizer.
	Synth synth.Options
	// Context cancels a sequence between observations (checked every
	// 256) and in-flight synthesis (signal handling). Nil means never
	// cancelled. Cancellation surfaces as ctx.Err() from the
	// Sequence/SequenceSource/FromWindow call; it never produces a
	// partial predicate.
	Context context.Context

	// noReuse disables cross-window seeding, forcing every window to
	// be synthesised from scratch, and noMemo disables whole-window
	// memoisation: reference configurations for this package's tests.
	noReuse bool
	noMemo  bool
}

// Generator produces predicates for windows of one trace schema.
//
// A Generator is safe for concurrent use: the memo, interning table,
// seed pools and stats are guarded by one mutex, so concurrent
// FromWindow/Sequence calls serialise their mutations. Determinism is
// only guaranteed when calls do not overlap — interleaved callers
// observe a seed-pool order that depends on scheduling.
type Generator struct {
	schema *trace.Schema
	opts   Options
	w      int

	synthVars []synth.Var // immutable after NewGenerator

	// obsIntern hash-conses observations so window identity is a
	// fixed-size array of dense ids (trace.WindowKey) instead of a
	// concatenated-string key. It has its own lock and never takes
	// g.mu, so it may be consulted with or without g.mu held.
	obsIntern *trace.Interner

	// Telemetry, resolved once by SetTelemetry so the hot paths record
	// with one nil check (cWindows/cMemoHits) or one atomic add; all of
	// it no-ops when telemetry is disabled. stageSpan parents the
	// per-window unit spans in the trace.
	tel         *pipeline.Telemetry
	stageSpan   pipeline.SpanID
	cWindows    *pipeline.Counter64
	cMemoHits   *pipeline.Counter64
	cCandidates *pipeline.Counter64
	hSynthNS    *pipeline.Histogram

	mu sync.Mutex
	// memo maps a window's content to its predicate and dense window
	// index. Entries are never evicted and nwins only grows, so an
	// index names one window content for the generator's life (nwins
	// is not len(memo): Restore may write one key twice).
	memo     map[trace.WindowKey]memoWindow
	nwins    int32
	interned map[string]*Predicate
	seeds    map[string][]expr.Expr // per-variable next-function seeds
	stats    Stats
}

// Stats counts predicate-generation work.
type Stats struct {
	Windows       int // windows processed
	MemoHits      int // windows answered from the memo
	UniqueWindows int // windows actually synthesised (memo misses)
	SynthCalls    int // synthesizer invocations (per variable)
	SeedHits      int // synthesizer calls answered by a reused seed
}

// Stats returns a snapshot of the generator's work counters. The
// returned value is a copy: callers cannot race on it, and two
// snapshots bracket a Sequence call to measure that call's work.
func (g *Generator) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

// Minus returns the counter-wise difference s − o, for measuring one
// pipeline stage out of a stateful generator's running totals.
func (s Stats) Minus(o Stats) Stats {
	return Stats{
		Windows:       s.Windows - o.Windows,
		MemoHits:      s.MemoHits - o.MemoHits,
		UniqueWindows: s.UniqueWindows - o.UniqueWindows,
		SynthCalls:    s.SynthCalls - o.SynthCalls,
		SeedHits:      s.SeedHits - o.SeedHits,
	}
}

// DefaultWindow returns the default observation window for a schema:
// 2 when every variable is symbolic, 3 otherwise.
func DefaultWindow(schema *trace.Schema) int {
	for i := 0; i < schema.Len(); i++ {
		if schema.Var(i).Type != expr.Sym {
			return 3
		}
	}
	return 2
}

// NewGenerator returns a Generator for the schema.
func NewGenerator(schema *trace.Schema, opts Options) (*Generator, error) {
	w := opts.Window
	if w == 0 {
		w = DefaultWindow(schema)
	}
	if w < 2 {
		return nil, fmt.Errorf("predicate: window %d must be at least 2", w)
	}
	g := &Generator{
		schema:    schema,
		opts:      opts,
		w:         w,
		obsIntern: trace.NewInterner(),
		memo:      map[trace.WindowKey]memoWindow{},
		interned:  map[string]*Predicate{},
		seeds:     map[string][]expr.Expr{},
	}
	for i := 0; i < schema.Len(); i++ {
		v := schema.Var(i)
		g.synthVars = append(g.synthVars, synth.Var{Name: v.Name, Type: v.Type})
	}
	return g, nil
}

// Window returns the observation window size in effect.
func (g *Generator) Window() int { return g.w }

// SetContext attaches a cancellation context to subsequent synthesis
// work (see Options.Context).
func (g *Generator) SetContext(ctx context.Context) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.opts.Context = ctx
}

// SetTelemetry attaches a run's telemetry to the generator: registry
// counters for windows, memo hits and enumerated synthesis candidates,
// a latency histogram for unique-window builds, and — when tracing —
// per-window unit spans parented under stage. Telemetry is purely
// observational (it never changes results) and must be attached before
// any Sequence/FromWindow call, not concurrently with one.
func (g *Generator) SetTelemetry(tel *pipeline.Telemetry, stage pipeline.SpanID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.tel = tel
	g.stageSpan = stage
	g.cWindows = tel.Count("predicate_windows_total")
	g.cMemoHits = tel.Count("predicate_memo_hits_total")
	g.cCandidates = tel.Count("synth_candidates_total")
	g.hSynthNS = tel.Hist("predicate_window_synth_ns", "ns")
	g.opts.Synth.Work = g.cCandidates.Raw()
}

// Sequence computes the predicate sequence P = p1 … pk for the trace,
// k = n+1−w (Algorithm 1 lines 9–14): SequenceSource over the trace,
// with the runs expanded. Returned predicates are interned: equal keys
// are pointer-equal.
func (g *Generator) Sequence(tr *trace.Trace) ([]*Predicate, error) {
	out := make([]*Predicate, 0, max(tr.Len()+1-g.w, 0))
	err := g.SequenceSource(trace.NewTraceSource(tr), func(r Run) error {
		for i := 0; i < r.Count; i++ {
			out = append(out, r.Pred)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FromWindow generates the predicate for one window of exactly w
// observations.
func (g *Generator) FromWindow(win *trace.Trace) (*Predicate, error) {
	if win.Len() != g.w {
		return nil, fmt.Errorf("predicate: window has %d observations, want %d", win.Len(), g.w)
	}
	ids := make([]trace.ObsID, g.w)
	for i := range ids {
		ids[i] = g.obsIntern.Intern(win.At(i))
	}
	m, err := g.streamWindow(ids)
	return m.p, err
}

// buildUnique runs one unique-window build with its telemetry: the
// window-synthesis latency histogram and, when tracing, a unit span
// recording the build's synthesis-call and seed-hit deltas. Callers
// hold g.mu and have already counted the window as unique.
func (g *Generator) buildUnique(win *trace.Trace) (expr.Expr, error) {
	tr := g.tel.Trace()
	var id pipeline.SpanID
	if tr.Enabled() {
		id = tr.Start(g.stageSpan, "window")
	}
	before := g.stats
	t0 := time.Now()
	e, err := g.buildExpr(win)
	g.hSynthNS.Since(t0)
	g.tel.Prof().Observe("window", time.Since(t0))
	if tr.Enabled() {
		d := g.stats.Minus(before)
		tr.End(id,
			pipeline.Int("synth_calls", int64(d.SynthCalls)),
			pipeline.Int("seed_hits", int64(d.SeedHits)),
			pipeline.Bool("ok", err == nil))
	}
	return e, err
}

// buildExpr constructs the window predicate as a conjunction in schema
// order: symbolic variables contribute equality guards when their
// value is constant across the window's step sources; every other
// variable contributes an update conjunct var' = next(X) with next
// synthesised from the window's steps. The caller interns the result.
func (g *Generator) buildExpr(win *trace.Trace) (expr.Expr, error) {
	steps := win.Steps()
	var conjuncts []expr.Expr

	// First pass: guards for symbolic variables (event names) whose
	// value is constant across the window's step sources. Symbolic
	// variables never receive update conjuncts (the next event is
	// environment-driven); the guards are also substituted into
	// update functions below, so that a reused general update like
	// ite(event = 'read', x-1, x+1) renders as x-1 under an
	// event = 'read' guard.
	//
	// Numeric input-role variables likewise receive no update
	// conjunct — synthesising ip' = f(X) for an environment-driven
	// input is semantically wrong and fragments the alphabet — but
	// they also receive no guard: they appear inside the synthesized
	// update functions where they matter (the paper's integrator
	// predicates reference ip only inside op' = op + ip).
	guards := map[string]expr.Value{}
	for vi := 0; vi < g.schema.Len(); vi++ {
		vd := g.schema.Var(vi)
		if !guardVar(vd) {
			continue
		}
		if c, uniform := g.uniformSource(win, vi); uniform {
			guards[vd.Name] = c
			conjuncts = append(conjuncts,
				expr.Eq(expr.NewVar(vd.Name, vd.Type), &expr.Lit{Val: c}))
		}
	}

	for vi := 0; vi < g.schema.Len(); vi++ {
		vd := g.schema.Var(vi)
		if vd.Type == expr.Sym || vd.Role == trace.Input {
			// Events and environment-driven inputs never receive
			// update conjuncts.
			continue
		}
		examples := make([]synth.Example, steps)
		for s := 0; s < steps; s++ {
			in := make(map[string]expr.Value, g.schema.Len())
			for vj := 0; vj < g.schema.Len(); vj++ {
				in[g.schema.Var(vj).Name] = win.At(s)[vj]
			}
			examples[s] = synth.Example{In: in, Out: win.At(s + 1)[vi]}
		}
		f, err := g.updateFunction(win, vd, examples)
		if err != nil {
			if errors.Is(err, synth.ErrInconsistent) {
				// No function fits: fall back to the explicit
				// step relation for this variable.
				conjuncts = append(conjuncts, explicitRelation(g.schema, win, vi))
				continue
			}
			return nil, fmt.Errorf("next(%s): %w", vd.Name, err)
		}
		for name, val := range guards {
			f = expr.Substitute(f, name, val)
		}
		f = expr.Simplify(f)
		conjuncts = append(conjuncts,
			expr.Eq(expr.NewPrimedVar(vd.Name, vd.Type), f))
	}

	if len(conjuncts) == 0 {
		// Pure event schema with a changing event: synthesise the
		// next-event function so the window still yields a
		// predicate (only reachable with Window > 2 on event
		// traces).
		vi := 0
		vd := g.schema.Var(vi)
		examples := make([]synth.Example, steps)
		for s := 0; s < steps; s++ {
			in := map[string]expr.Value{vd.Name: win.At(s)[vi]}
			examples[s] = synth.Example{In: in, Out: win.At(s + 1)[vi]}
		}
		f, err := g.synthesizeNext(vd.Name, examples)
		if err != nil {
			if errors.Is(err, synth.ErrInconsistent) {
				f = nil
			} else {
				return nil, fmt.Errorf("next(%s): %w", vd.Name, err)
			}
		}
		if f != nil {
			conjuncts = append(conjuncts,
				expr.Eq(expr.NewPrimedVar(vd.Name, vd.Type), f))
		} else {
			conjuncts = append(conjuncts, explicitRelation(g.schema, win, vi))
		}
	}

	e := conjuncts[0]
	for _, c := range conjuncts[1:] {
		e = expr.And(e, c)
	}
	return expr.Simplify(e), nil
}

// uniformSource reports whether variable vi has the same value at the
// source observation of every step in the window.
func (g *Generator) uniformSource(win *trace.Trace, vi int) (expr.Value, bool) {
	first := win.At(0)[vi]
	for s := 1; s < win.Steps(); s++ {
		if !win.At(s)[vi].Equal(first) {
			return expr.Value{}, false
		}
	}
	return first, true
}

// updateFunction synthesizes the next function for one state variable
// over a window. When the window's steps disagree on a symbolic or
// input variable (e.g. a write step followed by a reset step), the
// steps are grouped by that variable's value and each group is
// synthesized separately — with the usual cross-window seed reuse —
// and the results are combined into a canonical ite over the group
// values. This keeps mixed windows on the same, readable update
// functions the uniform windows use (x' = ite(event = 'reset', 0,
// x + 1)) instead of window-local minimal fits that memorise one
// queue length each; the per-value branches are exactly the control
// structure the guard variables carry.
func (g *Generator) updateFunction(win *trace.Trace, vd trace.VarDef, examples []synth.Example) (expr.Expr, error) {
	bi := g.branchVar(win)
	if bi < 0 {
		return g.synthesizeNext(vd.Name, examples)
	}
	bd := g.schema.Var(bi)
	groups := map[string][]synth.Example{}
	groupVal := map[string]expr.Value{}
	var keys []string
	for s, ex := range examples {
		v := win.At(s)[bi]
		k := v.String()
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
			groupVal[k] = v
		}
		groups[k] = append(groups[k], ex)
	}
	if len(groups) < 2 {
		return g.synthesizeNext(vd.Name, examples)
	}
	// Canonical branch order: sorted by value text, so windows that
	// see the same step set in a different order intern to the same
	// predicate.
	sort.Strings(keys)
	fs := make([]expr.Expr, len(keys))
	for i, k := range keys {
		f, err := g.synthesizeNext(vd.Name, groups[k])
		if err != nil {
			return nil, err
		}
		fs[i] = f
	}
	// Nest: ite(b = v1, f1, ite(b = v2, f2, … fLast)). Identical
	// branches collapse in the Simplify pass run by the caller.
	out := fs[len(fs)-1]
	for i := len(fs) - 2; i >= 0; i-- {
		cond := expr.Eq(expr.NewVar(bd.Name, bd.Type), &expr.Lit{Val: groupVal[keys[i]]})
		out = expr.NewIte(cond, fs[i], out)
	}
	return expr.Simplify(out), nil
}

// guardVar reports whether a variable contributes equality guards when
// uniform across a window (and grouping branches when not): symbolic
// variables always (event names are the control signal) and boolean
// inputs (two crisp values). Numeric inputs (the integrator's ip) are
// deliberately excluded: they belong inside arithmetic updates
// (op' = op + ip), which joint synthesis handles better, and guarding
// on every observed value would fragment the alphabet.
func guardVar(vd trace.VarDef) bool {
	return vd.Type == expr.Sym || (vd.Role == trace.Input && vd.Type == expr.Bool)
}

// branchVar returns the index of the first guard variable whose value
// differs across the window's step sources, or -1.
func (g *Generator) branchVar(win *trace.Trace) int {
	for vi := 0; vi < g.schema.Len(); vi++ {
		if !guardVar(g.schema.Var(vi)) {
			continue
		}
		if _, uniform := g.uniformSource(win, vi); !uniform {
			return vi
		}
	}
	return -1
}

// synthesizeNext runs the synthesizer for one variable's next
// function, seeding it with previously synthesised functions for the
// same variable, smallest first — so a steady-state window reuses the
// simple update (op, or op + ip) rather than whichever boundary
// predicate happened to be synthesised earlier. Callers hold g.mu.
func (g *Generator) synthesizeNext(name string, examples []synth.Example) (expr.Expr, error) {
	g.stats.SynthCalls++
	opts := g.opts.Synth
	opts.DiffVars = []string{name}
	if !g.opts.noReuse {
		opts.Seeds = g.sortedSeeds(name)
	}
	ctx := g.opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	f, err := synth.SynthesizeContext(ctx, g.synthVars, examples, opts)
	if err != nil {
		return nil, err
	}
	g.noteResult(name, f)
	return f, nil
}

// sortedSeeds returns a copy of the variable's seed pool ordered
// smallest-first (stable, so equal sizes keep insertion order). Callers
// hold g.mu.
func (g *Generator) sortedSeeds(name string) []expr.Expr {
	seeds := append([]expr.Expr(nil), g.seeds[name]...)
	sort.SliceStable(seeds, func(i, j int) bool { return seeds[i].Size() < seeds[j].Size() })
	return seeds
}

// noteResult records a synthesis result: a pool member counts as a
// seed hit; a fresh expression joins the pool (unless reuse is off).
// Callers hold g.mu.
func (g *Generator) noteResult(name string, f expr.Expr) {
	for _, s := range g.seeds[name] {
		if s == f {
			g.stats.SeedHits++
			return
		}
	}
	if !g.opts.noReuse {
		g.seeds[name] = append(g.seeds[name], f)
	}
}

// explicitRelation is the fallback predicate for a variable whose
// window steps admit no single next function: the disjunction over
// steps of (X = source ∧ var' = target).
func explicitRelation(schema *trace.Schema, win *trace.Trace, vi int) expr.Expr {
	var disj expr.Expr
	seen := map[string]bool{}
	for s := 0; s < win.Steps(); s++ {
		var conj expr.Expr
		for vj := 0; vj < schema.Len(); vj++ {
			vd := schema.Var(vj)
			eq := expr.Eq(expr.NewVar(vd.Name, vd.Type), &expr.Lit{Val: win.At(s)[vj]})
			if conj == nil {
				conj = eq
			} else {
				conj = expr.And(conj, eq)
			}
		}
		vd := schema.Var(vi)
		conj = expr.And(conj, expr.Eq(
			expr.NewPrimedVar(vd.Name, vd.Type),
			&expr.Lit{Val: win.At(s + 1)[vi]}))
		if seen[conj.String()] {
			continue
		}
		seen[conj.String()] = true
		if disj == nil {
			disj = conj
		} else {
			disj = expr.Or(disj, conj)
		}
	}
	return disj
}

// memoWindow is a memoised window: its predicate and its dense window
// index, or index -1 for a window resolved with noMemo.
type memoWindow struct {
	p *Predicate
	w int32
}

// memoise records a window's predicate under the next dense window
// index. Callers hold g.mu.
func (g *Generator) memoise(key trace.WindowKey, p *Predicate) memoWindow {
	m := memoWindow{p: p, w: g.nwins}
	g.nwins++
	g.memo[key] = m
	return m
}

// intern returns the canonical *Predicate for the expression. Callers
// hold g.mu.
func (g *Generator) intern(e expr.Expr) *Predicate {
	key := e.String()
	if p, ok := g.interned[key]; ok {
		return p
	}
	p := &Predicate{Expr: e, Key: key}
	g.interned[key] = p
	return p
}

// Seeds returns the per-variable next-function seeds accumulated so
// far, in insertion order. Model persistence saves them so that a
// reloaded model abstracts fresh traces to the same predicate text.
func (g *Generator) Seeds() map[string][]expr.Expr {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string][]expr.Expr, len(g.seeds))
	for name, es := range g.seeds {
		out[name] = append([]expr.Expr(nil), es...)
	}
	return out
}

// SetSeeds replaces the per-variable seed pools (used when loading a
// persisted model).
func (g *Generator) SetSeeds(seeds map[string][]expr.Expr) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.seeds = make(map[string][]expr.Expr, len(seeds))
	for name, es := range seeds {
		g.seeds[name] = append([]expr.Expr(nil), es...)
	}
}

// Alphabet returns all predicates interned so far, in no particular
// order.
func (g *Generator) Alphabet() []*Predicate {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*Predicate, 0, len(g.interned))
	for _, p := range g.interned {
		out = append(out, p)
	}
	return out
}

// Verify checks that predicate p holds on every step of the window it
// claims to describe; the tests use it as a soundness oracle.
func Verify(p *Predicate, win *trace.Trace) error {
	for s := 0; s < win.Steps(); s++ {
		ok, err := win.HoldsAt(p.Expr, s)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("predicate %s does not hold on step %d", p.Key, s)
		}
	}
	return nil
}
