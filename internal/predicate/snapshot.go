// Generator snapshots: Snapshot captures the complete mutable state of
// a Generator — the observation interner, the window memo, the
// interned predicate alphabet, the per-variable seed pools and the
// work counters — in a serialisable, deterministic form, and Restore
// rebuilds an identical generator from it. A restored generator
// abstracts every window it has seen to the same predicate as the
// original: ids, memo keys and seed order all match. Saved models
// carry a snapshot as their genstate line (see core/persist.go and
// DESIGN.md note 15).
package predicate

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/expr"
	"repro/internal/trace"
)

// SnapshotState is the serialisable state of a Generator. All fields
// are deterministic functions of the generator's logical state: maps
// are emitted in sorted order, slices in their semantically meaningful
// order (interner ids, seed insertion order), so the same generator
// state always snapshots to the same bytes.
type SnapshotState struct {
	// Window is the observation window w the generator was built with;
	// Restore rejects a mismatch.
	Window int `json:"window"`
	// Obs holds the canonical interned observations in id order, each
	// rendered value-by-value in schema order (type-directed text, the
	// same rendering trace CSV uses). Re-interning them in order
	// reproduces the interner exactly.
	Obs [][]string `json:"obs"`
	// Preds is the interned predicate alphabet as canonical expression
	// text, sorted.
	Preds []string `json:"preds"`
	// Memo maps window contents (interned-id vectors) to predicates
	// (indices into Preds), sorted by id vector.
	Memo []MemoEntry `json:"memo"`
	// Seeds holds the per-variable next-function seed pools, variables
	// sorted, expressions in insertion order (the order is load-bearing:
	// the seed pass tries smaller seeds first with insertion order as
	// the stable tie-break).
	Seeds []SeedEntry `json:"seeds"`
	// Stats are the cumulative work counters.
	Stats Stats `json:"stats"`
}

// MemoEntry is one memoised window: its interned-id contents and the
// index of its predicate in SnapshotState.Preds.
type MemoEntry struct {
	IDs  []int32 `json:"ids"`
	Pred int     `json:"pred"`
}

// SeedEntry is one variable's seed pool in insertion order.
type SeedEntry struct {
	Var   string   `json:"var"`
	Exprs []string `json:"exprs"`
}

// Snapshot captures the generator's state. It must not run
// concurrently with a Sequence/SequenceSource call (saved models take
// it after learning).
func (g *Generator) Snapshot() *SnapshotState {
	g.mu.Lock()
	defer g.mu.Unlock()

	st := &SnapshotState{Window: g.w, Stats: g.stats}

	canon := g.obsIntern.Canon()
	st.Obs = make([][]string, len(canon))
	for i, obs := range canon {
		row := make([]string, len(obs))
		for j, v := range obs {
			row[j] = v.String()
		}
		st.Obs[i] = row
	}

	st.Preds = make([]string, 0, len(g.interned))
	for key := range g.interned {
		st.Preds = append(st.Preds, key)
	}
	sort.Strings(st.Preds)
	predIdx := make(map[string]int, len(st.Preds))
	for i, key := range st.Preds {
		predIdx[key] = i
	}

	st.Memo = make([]MemoEntry, 0, len(g.memo))
	for key, m := range g.memo {
		ids := key.IDs()
		ids32 := make([]int32, len(ids))
		for i, id := range ids {
			ids32[i] = int32(id)
		}
		st.Memo = append(st.Memo, MemoEntry{IDs: ids32, Pred: predIdx[m.p.Key]})
	}
	sort.Slice(st.Memo, func(i, j int) bool {
		a, b := st.Memo[i].IDs, st.Memo[j].IDs
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})

	names := make([]string, 0, len(g.seeds))
	for name := range g.seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		es := g.seeds[name]
		texts := make([]string, len(es))
		for i, e := range es {
			texts[i] = e.String()
		}
		st.Seeds = append(st.Seeds, SeedEntry{Var: name, Exprs: texts})
	}
	return st
}

// Restore rebuilds the snapshot's state into g, which must be freshly
// constructed with the same schema and window. It returns the restored
// predicate alphabet keyed by canonical text, so callers can rebind
// symbol names to predicates. Expression round-tripping is checked:
// every predicate must re-render to its stored canonical text.
func (g *Generator) Restore(st *SnapshotState) (map[string]*Predicate, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if st.Window != g.w {
		return nil, fmt.Errorf("predicate: snapshot window %d, generator window %d", st.Window, g.w)
	}
	if g.stats.Windows != 0 || g.obsIntern.Len() != 0 || len(g.interned) != 0 {
		return nil, fmt.Errorf("predicate: Restore requires a fresh generator")
	}
	types := g.schema.Types()

	// Interner: re-intern the canonical observations in id order; the
	// dense first-sight id assignment reproduces the tables exactly.
	for i, row := range st.Obs {
		if len(row) != g.schema.Len() {
			return nil, fmt.Errorf("predicate: snapshot observation %d has %d values, schema has %d", i, len(row), g.schema.Len())
		}
		obs := make(trace.Observation, len(row))
		for j, text := range row {
			v, err := parseValue(g.schema.Var(j).Type, text)
			if err != nil {
				return nil, fmt.Errorf("predicate: snapshot observation %d, variable %q: %w", i, g.schema.Var(j).Name, err)
			}
			obs[j] = v
		}
		if id := g.obsIntern.Intern(obs); int(id) != i {
			return nil, fmt.Errorf("predicate: snapshot observation %d re-interned as id %d (duplicate entry)", i, id)
		}
	}

	preds := make([]*Predicate, len(st.Preds))
	for i, text := range st.Preds {
		e, err := expr.Parse(text, types)
		if err != nil {
			return nil, fmt.Errorf("predicate: snapshot predicate %d: %w", i, err)
		}
		if canon := e.String(); canon != text {
			return nil, fmt.Errorf("predicate: snapshot predicate %d is not canonical: %q vs %q", i, text, canon)
		}
		p := &Predicate{Expr: e, Key: text}
		g.interned[text] = p
		preds[i] = p
	}

	for _, me := range st.Memo {
		if me.Pred < 0 || me.Pred >= len(preds) {
			return nil, fmt.Errorf("predicate: snapshot memo entry references predicate %d of %d", me.Pred, len(preds))
		}
		ids := make([]trace.ObsID, len(me.IDs))
		for i, id := range me.IDs {
			if id < 0 || int(id) >= g.obsIntern.Len() {
				return nil, fmt.Errorf("predicate: snapshot memo entry references observation %d of %d", id, g.obsIntern.Len())
			}
			ids[i] = trace.ObsID(id)
		}
		g.memoise(trace.MakeWindowKey(ids), preds[me.Pred])
	}

	for _, se := range st.Seeds {
		if g.schema.Index(se.Var) < 0 {
			return nil, fmt.Errorf("predicate: snapshot seed variable %q not in schema", se.Var)
		}
		for i, text := range se.Exprs {
			e, err := expr.Parse(text, types)
			if err != nil {
				return nil, fmt.Errorf("predicate: snapshot seed %q[%d]: %w", se.Var, i, err)
			}
			g.seeds[se.Var] = append(g.seeds[se.Var], e)
		}
	}

	g.stats = st.Stats
	alphabet := make(map[string]*Predicate, len(g.interned))
	for key, p := range g.interned {
		alphabet[key] = p
	}
	return alphabet, nil
}

// parseValue parses the type-directed text rendering Snapshot emits
// (the same rendering the CSV trace codec uses).
func parseValue(ty expr.Type, text string) (expr.Value, error) {
	switch ty {
	case expr.Int:
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return expr.Value{}, err
		}
		return expr.IntVal(n), nil
	case expr.Bool:
		b, err := strconv.ParseBool(text)
		if err != nil {
			return expr.Value{}, err
		}
		return expr.BoolVal(b), nil
	case expr.Sym:
		return expr.SymVal(text), nil
	default:
		return expr.Value{}, fmt.Errorf("unknown value type %v", ty)
	}
}
