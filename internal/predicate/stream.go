// Streaming predicate sequencing: SequenceSource slides a w-sized ring
// of interned observation ids over a trace.Source and emits the
// predicate sequence as maximal runs of equal predicates, so the
// resident state is O(w + unique windows) regardless of trace length.
//
// This serial pass is the only windower. Observations are interned in
// stream order (through the source's own raw-record id cache when it
// is a trace.IDSource), and each window the pass's transition table
// does not already resolve takes the memo-or-build branch against the
// generator state, so the output, the interning, the seed-pool
// evolution, the stats and the first error are fixed by the
// observation sequence alone.
package predicate

import (
	"fmt"
	"io"

	"repro/internal/pipeline"
	"repro/internal/trace"
)

// Run is one maximal run of identical predicates in a streamed
// sequence: Count consecutive windows all abstracted to Pred. Pointer
// equality is the predicate identity (predicates are interned).
type Run struct {
	Pred  *Predicate
	Count int
}

// SequenceSource computes the predicate sequence of the observations
// streamed by src, emitting it as maximal runs in order, with only
// O(w + unique windows) resident memory. Sequence is this pass over an
// in-memory trace.
//
// emit is called serially, in sequence order; an emit error aborts the
// stream and is returned verbatim. With Options.Context set, the pass
// checks it every 256 observations and returns its error once it is
// done. The registry counters include every window resolved so far
// whenever the pass reads src, and the generator's Stats do too
// whenever emit is called and when the pass returns.
func (g *Generator) SequenceSource(src trace.Source, emit func(Run) error) error {
	if !src.Schema().Equal(g.schema) {
		return errNoSchema
	}
	g.mu.Lock()
	ctx := g.opts.Context
	ps := &pass{g: g, emit: emit, next: map[uint64]memoWindow{}, cur: -1,
		cWindows: g.cWindows, cMemoHits: g.cMemoHits}
	g.mu.Unlock()
	defer ps.countHits()
	ids := make([]trace.ObsID, 0, g.w)
	seen := 0
	nextID := g.nextIDFunc(src)
	for {
		if ctx != nil && seen&255 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		id, err := nextID()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		seen++
		var full bool
		ids, full = slide(ids, g.w, id)
		if !full {
			continue
		}
		p, err := ps.window(ids)
		if err != nil {
			return fmt.Errorf("predicate: window at observation %d: %w", seen-g.w, err)
		}
		if err := ps.add(p); err != nil {
			return err
		}
	}
	if seen < g.w {
		return fmt.Errorf("predicate: trace length %d shorter than window %d", seen, g.w)
	}
	return ps.flush()
}

var errNoSchema = fmt.Errorf("predicate: trace schema does not match generator schema")

// pass is the state of one SequenceSource call: the window-transition
// table, the run being folded, and the table hits not yet added to the
// generator's Stats.
//
// Windows are numbered by their dense memo index, which fixes their
// content, so (current window, next observation id) fixes the next
// window's content. The table maps that pair to the next window's memo
// value once streamWindow has resolved it. Memo entries are never
// evicted, so a table hit is exactly the memo hit streamWindow would
// count, and it costs one integer-keyed lookup instead of a window key,
// a struct hash and g.mu. The table is private to the pass, so a hit
// takes no lock; with noMemo streamWindow returns no index and every
// window is rebuilt.
type pass struct {
	g    *Generator
	emit func(Run) error

	next map[uint64]memoWindow // (window, next observation id) → next window
	cur  int32                 // index of the current window; -1 if none
	hits int                   // table hits not yet counted in g.stats

	// The registry counters, taken with the options when the pass
	// starts. A hit adds to them at once, so a scrape of a pass that
	// stays on one predicate still sees progress.
	cWindows, cMemoHits *pipeline.Counter64

	pred  *Predicate // the run being folded
	count int
}

// window resolves the window ids ends with: from the table when the
// transition from the current window is known, else through
// streamWindow, recording the transition.
func (ps *pass) window(ids []trace.ObsID) (*Predicate, error) {
	t := uint64(uint32(ps.cur))<<32 | uint64(uint32(ids[len(ids)-1]))
	if ps.cur >= 0 {
		if m, ok := ps.next[t]; ok {
			ps.cur = m.w
			ps.hits++
			ps.cWindows.Add(1)
			ps.cMemoHits.Add(1)
			return m.p, nil
		}
	}
	m, err := ps.g.streamWindow(ids)
	if err != nil {
		return nil, err
	}
	if ps.cur >= 0 && m.w >= 0 {
		ps.next[t] = m
	}
	ps.cur = m.w
	return m.p, nil
}

// countHits adds the pending table hits to the generator's Stats, as
// the memo hits they are.
func (ps *pass) countHits() {
	if ps.hits == 0 {
		return
	}
	g := ps.g
	g.mu.Lock()
	g.stats.Windows += ps.hits
	g.stats.MemoHits += ps.hits
	g.mu.Unlock()
	ps.hits = 0
}

// add folds one window's predicate into the maximal runs, emitting the
// previous run when the predicate changes.
func (ps *pass) add(p *Predicate) error {
	if p == ps.pred {
		ps.count++
		return nil
	}
	if err := ps.flush(); err != nil {
		return err
	}
	ps.pred, ps.count = p, 1
	return nil
}

// flush counts the pending hits and emits the run being folded, if any.
func (ps *pass) flush() error {
	ps.countHits()
	if ps.count == 0 {
		return nil
	}
	r := Run{Pred: ps.pred, Count: ps.count}
	ps.pred, ps.count = nil, 0
	return ps.emit(r)
}

// slide appends id to the window ids, dropping the oldest id once the
// window is full. It returns true when ids holds a complete window.
func slide(ids []trace.ObsID, w int, id trace.ObsID) ([]trace.ObsID, bool) {
	if len(ids) == w {
		copy(ids, ids[1:])
		ids = ids[:w-1]
	}
	ids = append(ids, id)
	return ids, len(ids) == w
}

// materialize wraps the canonical observations for ids into a window
// trace without copying values (the canonical slices are shared and
// read-only, which buildExpr respects).
func (g *Generator) materialize(ids []trace.ObsID) *trace.Trace {
	obs := make([]trace.Observation, len(ids))
	for i, id := range ids {
		obs[i] = g.obsIntern.Obs(id)
	}
	return trace.FromObservations(g.schema, obs)
}

// nextIDFunc returns the per-observation intern step for src: the
// IDSource fast path when the source can intern its own records (a
// repeated raw record then skips decoding entirely), and decode-then-
// intern otherwise. Both assign identical ids in identical order — the
// IDSource contract.
func (g *Generator) nextIDFunc(src trace.Source) func() (trace.ObsID, error) {
	if is, ok := src.(trace.IDSource); ok {
		return func() (trace.ObsID, error) { return is.NextID(g.obsIntern) }
	}
	return func() (trace.ObsID, error) {
		obs, err := src.Next()
		if err != nil {
			return 0, err
		}
		return g.obsIntern.Intern(obs), nil
	}
}

// streamWindow resolves one window given its interned ids: a memo hit,
// or materialise, build, intern and memoise. With noMemo the returned
// window index is -1.
func (g *Generator) streamWindow(ids []trace.ObsID) (memoWindow, error) {
	key := trace.MakeWindowKey(ids)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.stats.Windows++
	g.cWindows.Add(1)
	if !g.opts.noMemo {
		if m, ok := g.memo[key]; ok {
			g.stats.MemoHits++
			g.cMemoHits.Add(1)
			return m, nil
		}
	}
	g.stats.UniqueWindows++
	e, err := g.buildUnique(g.materialize(ids))
	if err != nil {
		return memoWindow{w: -1}, err
	}
	p := g.intern(e)
	if g.opts.noMemo {
		return memoWindow{p: p, w: -1}, nil
	}
	return g.memoise(key, p), nil
}
