package core

import (
	"fmt"
	"sort"

	"repro/internal/automaton"
	"repro/internal/expr"
	"repro/internal/predicate"
	"repro/internal/trace"
)

// State-invariant extraction — the paper's concluding prospect: learned
// models can seed inductive-invariant synthesis. Running the training
// trace through the automaton assigns each observation to the model
// state the run is in; per state, the observed variable ranges become
// a candidate invariant (an over-approximation of the state's concrete
// configurations, exact on the trace by construction).

// StateInvariant is the candidate invariant of one model state.
type StateInvariant struct {
	State automaton.State
	// Expr is the invariant as a predicate over current-state
	// variables (nil when the state was never visited by the run).
	Expr expr.Expr
	// Visits is the number of observations assigned to the state.
	Visits int
}

// StateInvariants runs the trace through the model and derives one
// candidate invariant per visited state: interval bounds for integer
// variables, value sets for symbolic variables (as equality
// disjunctions, up to maxSymValues alternatives, beyond which the
// variable is dropped from the invariant), and constants for boolean
// variables that never vary.
func (m *Model) StateInvariants(tr *trace.Trace, maxSymValues int) ([]StateInvariant, error) {
	if maxSymValues <= 0 {
		maxSymValues = 4
	}
	schema := m.pipeline.schema

	nVars := schema.Len()
	type acc struct {
		visits int
		ints   []intRange
		syms   []map[string]bool
		bools  []map[bool]bool
	}
	accs := map[automaton.State]*acc{}
	get := func(q automaton.State) *acc {
		a, ok := accs[q]
		if !ok {
			a = &acc{
				ints:  make([]intRange, nVars),
				syms:  make([]map[string]bool, nVars),
				bools: make([]map[bool]bool, nVars),
			}
			for i := 0; i < nVars; i++ {
				a.syms[i] = map[string]bool{}
				a.bools[i] = map[bool]bool{}
			}
			accs[q] = a
		}
		return a
	}
	record := func(q automaton.State, obs trace.Observation) {
		a := get(q)
		a.visits++
		for i, v := range obs {
			switch v.T {
			case expr.Int:
				r := &a.ints[i]
				if !r.seen || v.I < r.lo {
					r.lo = v.I
				}
				if !r.seen || v.I > r.hi {
					r.hi = v.I
				}
				r.seen = true
			case expr.Sym:
				a.syms[i][v.S] = true
			case expr.Bool:
				a.bools[i][v.B] = true
			}
		}
	}

	// Walk the run; observation i belongs to the state before
	// consuming predicate i (predicate i summarises the window that
	// starts at observation i). The final w−1 observations are
	// interior to the last window and belong to the final state.
	cur := m.Automaton.Initial()
	i := 0
	err := m.pipeline.gen.SequenceSource(trace.NewTraceSource(tr), func(r predicate.Run) error {
		for end := i + r.Count; i < end; i++ {
			record(cur, tr.At(i))
			next, ok := m.Automaton.Step(cur, r.Pred.Key)
			if !ok {
				return fmt.Errorf("core: trace leaves the model at position %d (%s); invariants require a conforming trace", i, r.Pred.Key)
			}
			cur = next
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ; i < tr.Len(); i++ {
		record(cur, tr.At(i))
	}

	var out []StateInvariant
	for q, a := range accs {
		inv := buildInvariant(schema, a.ints, a.syms, a.bools, maxSymValues)
		out = append(out, StateInvariant{State: q, Expr: inv, Visits: a.visits})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].State < out[j].State })
	return out, nil
}

func buildInvariant(schema *trace.Schema, ints []intRange, syms []map[string]bool, bools []map[bool]bool, maxSymValues int) expr.Expr {
	var conjuncts []expr.Expr
	for i := 0; i < schema.Len(); i++ {
		vd := schema.Var(i)
		v := expr.NewVar(vd.Name, vd.Type)
		switch vd.Type {
		case expr.Int:
			r := ints[i]
			if !r.seen {
				continue
			}
			switch {
			case r.lo == r.hi:
				conjuncts = append(conjuncts, expr.Eq(v, expr.IntLit(r.lo)))
			default:
				conjuncts = append(conjuncts,
					expr.And(expr.Le(expr.IntLit(r.lo), v), expr.Le(v, expr.IntLit(r.hi))))
			}
		case expr.Sym:
			if len(syms[i]) == 0 || len(syms[i]) > maxSymValues {
				continue
			}
			vals := make([]string, 0, len(syms[i]))
			for s := range syms[i] {
				vals = append(vals, s)
			}
			sort.Strings(vals)
			var disj expr.Expr
			for _, s := range vals {
				eq := expr.Eq(v, expr.SymLit(s))
				if disj == nil {
					disj = expr.Expr(eq)
				} else {
					disj = expr.Or(disj, eq)
				}
			}
			conjuncts = append(conjuncts, disj)
		case expr.Bool:
			if len(bools[i]) != 1 {
				continue
			}
			for b := range bools[i] {
				conjuncts = append(conjuncts, expr.Eq(v, expr.BoolLit(b)))
			}
		}
	}
	if len(conjuncts) == 0 {
		return expr.BoolLit(true)
	}
	inv := conjuncts[0]
	for _, c := range conjuncts[1:] {
		inv = expr.And(inv, c)
	}
	return inv
}

// intRange accumulates the observed bounds of one integer variable.
type intRange struct {
	lo, hi int64
	seen   bool
}
