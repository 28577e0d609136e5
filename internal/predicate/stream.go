// Streaming predicate sequencing: SequenceSource slides a w-sized ring
// of interned observation ids over a trace.Source and emits the
// predicate sequence as maximal runs of equal predicates, so the
// resident state is O(w + unique windows) regardless of trace length.
//
// This serial pass is the only windower. Observations are interned in
// stream order (through the source's own raw-record id cache when it
// is a trace.IDSource), and each window takes the memo-or-build branch
// against the generator state, so the output, the interning, the
// seed-pool evolution, the stats and the first error are fixed by the
// observation sequence alone.
package predicate

import (
	"fmt"
	"io"

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
// done.
func (g *Generator) SequenceSource(src trace.Source, emit func(Run) error) error {
	if !src.Schema().Equal(g.schema) {
		return errNoSchema
	}
	g.mu.Lock()
	ctx := g.opts.Context
	g.mu.Unlock()
	em := &runEmitter{emit: emit}
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
		p, err := g.streamWindow(ids)
		if err != nil {
			return fmt.Errorf("predicate: window at observation %d: %w", seen-g.w, err)
		}
		if err := em.add(p); err != nil {
			return err
		}
	}
	if seen < g.w {
		return fmt.Errorf("predicate: trace length %d shorter than window %d", seen, g.w)
	}
	return em.flush()
}

var errNoSchema = fmt.Errorf("predicate: trace schema does not match generator schema")

// runEmitter folds a stream of per-window predicates into maximal runs.
type runEmitter struct {
	emit  func(Run) error
	pred  *Predicate
	count int
}

func (e *runEmitter) add(p *Predicate) error {
	if p == e.pred {
		e.count++
		return nil
	}
	if err := e.flush(); err != nil {
		return err
	}
	e.pred, e.count = p, 1
	return nil
}

func (e *runEmitter) flush() error {
	if e.count == 0 {
		return nil
	}
	r := Run{Pred: e.pred, Count: e.count}
	e.pred, e.count = nil, 0
	return e.emit(r)
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
// or materialise, build, intern and memoise. The memo key is ignored
// when memoisation is off.
func (g *Generator) streamWindow(ids []trace.ObsID) (*Predicate, error) {
	key := trace.MakeWindowKey(ids)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.stats.Windows++
	g.cWindows.Add(1)
	if !g.opts.NoMemo {
		if p, ok := g.memo[key]; ok {
			g.stats.MemoHits++
			g.cMemoHits.Add(1)
			return p, nil
		}
	}
	g.stats.UniqueWindows++
	e, err := g.buildUnique(g.materialize(ids))
	if err != nil {
		return nil, err
	}
	p := g.intern(e)
	if !g.opts.NoMemo {
		g.memo[key] = p
	}
	return p, nil
}
