// Cross-run synthesis caching: with a synthcache.Cache attached
// (Options.Cache / SetSynthCache), every unique-window build consults
// an on-disk, content-addressed record of a previous build of the same
// window before enumerating, and publishes its own outcome after.
//
// A cache entry is a replay record: the per-call synthesizer outcomes
// of one window build whose validity does not depend on when (or in
// which process) they were computed:
//
//   - a call the producing run answered by CEGIS search stores the
//     minimal expression, which depends only on window content and
//     synthesis parameters (the CEGIS search ignores seeds once the
//     seed pass misses);
//   - a call the producing run answered from its seed pool stores only
//     a marker: pools are run-local history, so the consuming run must
//     re-decide the call against its own pool — replayNext treats the
//     marker like a missing record and falls back to full synthesis
//     when its own seed pass misses;
//   - deterministic failures (ErrInconsistent, ErrNoSolution) store
//     their class; anything else (cancellation) poisons the record so
//     it is never published.
//
// Replay re-runs the window build with the direct path's decision rule
// (seed pass against the live pool first, the record otherwise), so a
// model learned with the cache cold, warm, shared, corrupted or
// disabled is byte-identical in all five states — the cache can only
// change how fast a window builds, never what it builds.
//
// Keys hash the window's canonical value content (insertion-order
// independent: two runs that intern observations in different orders
// digest the same window identically) together with every synthesis
// parameter that can change a build's outcome.
package predicate

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/expr"
	"repro/internal/synth"
	"repro/internal/synthcache"
	"repro/internal/trace"
)

// synthRecord is the replayable outcome of one synthesizer call,
// decoded from a cross-run cache entry.
type synthRecord struct {
	f   expr.Expr
	err error
	// seed marks a call the producing run answered from its seed pool:
	// replay must re-decide it against the live pool (synthesising
	// afresh on a miss), never reuse a value.
	seed bool
	// name is the recorded variable; replay poisons the job on a
	// mismatch.
	name string
}

// cacheJob is one unique-window build against the cache: the window's
// digest, the records of a previous build (none on a miss), and the
// outcomes this build publishes.
type cacheJob struct {
	dig        synthcache.Digest
	recs       []synthRecord
	cur        int  // next record replay consumes
	fromCache  bool // recs were loaded from an entry
	cachedExpr int  // ExprCalls of the loaded entry
	pub        []synthcache.Call
	poison     bool
}

// SetSynthCache attaches a cross-run synthesis cache, or detaches it
// (nil). Attach before any Sequence/FromWindow call, not concurrently
// with one. Models are byte-identical with and without a cache.
func (g *Generator) SetSynthCache(c *synthcache.Cache) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.cache = c
	if c == nil {
		g.cachePrefix, g.cacheTypes = nil, nil
		return
	}
	g.cachePrefix = cacheKeyPrefix(g.w, g.schema, g.opts.Synth)
	g.cacheTypes = g.schema.Types()
	if g.tel != nil {
		c.SetTelemetry(g.tel)
	}
}

// cacheKeyPrefix renders every parameter besides the window content
// that determines a build's outcome: window width, schema (names,
// types, roles — they drive guard/branch selection and the synthesis
// grammar), and the synthesizer options with MaxSize resolved. Seeds,
// Work and NoReuse are deliberately absent: entries record
// seed-independent outcomes, candidate counting is telemetry, and
// NoReuse is applied live at replay. The embedded format version must
// be bumped whenever buildExpr's call sequence or the synthesizer's
// search order changes meaning, so stale fleets miss instead of
// replaying records under the wrong semantics.
func cacheKeyPrefix(w int, schema *trace.Schema, so synth.Options) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "t2m-synthcache-key v%d\n", synthcache.Version)
	fmt.Fprintf(&b, "w=%d\n", w)
	for i := 0; i < schema.Len(); i++ {
		v := schema.Var(i)
		fmt.Fprintf(&b, "var=%q type=%d role=%d\n", v.Name, v.Type, v.Role)
	}
	maxSize := so.MaxSize
	if maxSize == 0 {
		maxSize = synth.DefaultMaxSize
	}
	fmt.Fprintf(&b, "maxsize=%d mul=%t\n", maxSize, so.EnableMul)
	fmt.Fprintf(&b, "arith=%v cmp=%v\n", so.ExtraArithConsts, so.ExtraCmpConsts)
	return b.Bytes()
}

// cacheDigest is the content address of one window: the parameter
// prefix followed by every observation value's length-prefixed
// canonical text, in window and schema order. Hashing value content
// rather than interned ids keeps the digest independent of interner
// insertion order (ids are first-sight-ordered; text is not).
func (g *Generator) cacheDigest(win *trace.Trace) synthcache.Digest {
	h := sha256.New()
	h.Write(g.cachePrefix)
	var n [4]byte
	for i := 0; i < win.Len(); i++ {
		for _, v := range win.At(i) {
			s := v.String()
			binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
			h.Write(n[:])
			io.WriteString(h, s)
		}
	}
	var d synthcache.Digest
	h.Sum(d[:0])
	return d
}

// cacheLookup consults the cache for the job's window, filling
// job.recs with the decoded call records on a hit. Entries that pass
// the byte-level checksum but fail semantic decoding (unparseable or
// non-canonical expression text) are reclassified as corrupt and
// treated as misses.
func (g *Generator) cacheLookup(job *cacheJob) {
	ent, ok := g.cache.Load(job.dig)
	if !ok {
		return
	}
	recs, err := g.decodeEntry(ent)
	if err != nil {
		g.cache.Reject()
		return
	}
	job.recs = recs
	job.fromCache = true
	job.cachedExpr = ent.ExprCalls()
}

// decodeEntry converts a cache entry into replayable records, with the
// same canonical round-trip check model loading applies: every stored
// expression must re-render to its stored text.
func (g *Generator) decodeEntry(ent *synthcache.Entry) ([]synthRecord, error) {
	recs := make([]synthRecord, len(ent.Calls))
	for i, call := range ent.Calls {
		recs[i].name = call.Var
		switch call.Op {
		case synthcache.OpExpr:
			e, err := expr.Parse(call.Expr, g.cacheTypes)
			if err != nil {
				return nil, err
			}
			if canon := e.String(); canon != call.Expr {
				return nil, fmt.Errorf("predicate: cached expression not canonical: %q vs %q", call.Expr, canon)
			}
			recs[i].f = e
		case synthcache.OpSeed:
			recs[i].seed = true
		case synthcache.OpInconsistent:
			recs[i].err = synth.ErrInconsistent
		case synthcache.OpNoSolution:
			recs[i].err = synth.ErrNoSolution
		default:
			return nil, fmt.Errorf("predicate: cached call %d has unknown op %q", i, call.Op)
		}
	}
	return recs, nil
}

// pubCall records one replay outcome for publication: a pool answer as
// a seed marker, a search answer as its expression text, deterministic
// failures as their class. Any other outcome poisons the window's
// record.
func (job *cacheJob) pubCall(name string, f expr.Expr, seedHit bool, err error) {
	if job.poison {
		return
	}
	call := synthcache.Call{Var: name}
	switch {
	case err == nil && seedHit:
		call.Op = synthcache.OpSeed
	case err == nil:
		call.Op = synthcache.OpExpr
		call.Expr = f.String()
	case errors.Is(err, synth.ErrInconsistent):
		call.Op = synthcache.OpInconsistent
	case errors.Is(err, synth.ErrNoSolution):
		call.Op = synthcache.OpNoSolution
	default:
		job.poison = true
		return
	}
	job.pub = append(job.pub, call)
}

// cachePublish stores the replayed window's outcome record, best
// effort (a failed store costs only the next run's miss). An entry
// that was itself loaded from the cache is rewritten only when this
// run resolved strictly more calls to seed-free expressions than the
// stored record — the richer record saves future cold-pool runs more
// enumeration, while an equal or poorer one would only churn the file.
func (g *Generator) cachePublish(job *cacheJob) {
	if job.poison {
		return
	}
	ent := &synthcache.Entry{Calls: job.pub}
	if job.fromCache && ent.ExprCalls() <= job.cachedExpr {
		return
	}
	_ = g.cache.Store(job.dig, ent)
}

// buildCached is the unique-window build against the cache: look the
// window up, replay whatever record exists (an empty record list
// replays as pure synthesis), publish on success. Callers hold g.mu and
// wrap the call in buildUnique's telemetry.
func (g *Generator) buildCached(win *trace.Trace) (expr.Expr, error) {
	job := &cacheJob{dig: g.cacheDigest(win)}
	g.cacheLookup(job)
	e, err := g.buildExpr(win, func(name string, examples []synth.Example) (expr.Expr, error) {
		return g.replayNext(name, examples, job)
	})
	if err == nil {
		g.cachePublish(job)
	}
	return e, err
}

// replayNext reproduces exactly what synthesizeNext would return at
// this point of the seed-pool evolution, substituting the job's next
// cached record for the enumeration when the seed pass misses, and
// records every outcome on the job for publication. Callers hold g.mu.
func (g *Generator) replayNext(name string, examples []synth.Example, job *cacheJob) (expr.Expr, error) {
	var rec *synthRecord
	if job.cur < len(job.recs) {
		rec = &job.recs[job.cur]
		job.cur++
	}
	g.stats.SynthCalls++
	// Order inside synth.Synthesize: consistency check, then seed
	// pass, then search.
	if err := synth.CheckExamples(examples); err != nil {
		job.pubCall(name, nil, false, err)
		return nil, err
	}
	if rec != nil && rec.name != name {
		// A record for a different call sequence than this build ran:
		// synthesise the rest of the window and never publish it.
		job.poison = true
		rec = nil
	}
	if rec != nil && rec.seed {
		// The producing run's pool answered this call; ours decides
		// afresh below, exactly like a missing record.
		rec = nil
	}
	var f expr.Expr
	if !g.opts.NoReuse {
		for _, s := range g.sortedSeeds(name) {
			if synth.ConsistentWith(s, examples) {
				f = s
				break
			}
		}
	}
	seedHit := f != nil
	if f == nil {
		switch {
		case rec == nil:
			// No usable record: synthesise (the seed pass inside
			// misses again; only the CEGIS search runs).
			var err error
			f, err = g.searchNext(name, examples)
			if err != nil {
				job.pubCall(name, nil, false, err)
				return nil, err
			}
		case rec.err != nil:
			// The seed pool could not rescue the recorded failure, so
			// synthesis fails identically.
			job.pubCall(name, nil, false, rec.err)
			return nil, rec.err
		default:
			f = rec.f
		}
	}
	g.noteResult(name, f)
	job.pubCall(name, f, seedHit, nil)
	return f, nil
}
