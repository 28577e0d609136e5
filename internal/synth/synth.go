// Package synth implements synthesis of transition functions from
// input/output examples (Section III-B of the paper).
//
// The paper uses an off-the-shelf CEGIS engine (fastsynth, or CVC4 in
// SyGuS mode) to find the *smallest* function next(X) consistent with
// the observation steps in a trace window, discovering any required
// constants automatically. Neither tool is available to a stdlib-only
// Go module, so this package provides the equivalent engine:
//
//   - Enumerate performs bottom-up, size-ordered enumeration over the
//     predicate-expression grammar with observational-equivalence
//     pruning, returning the first (hence smallest) expression whose
//     value matches every example.
//   - Synthesize wraps Enumerate in a counterexample-guided loop
//     (CEGIS): it synthesises against a growing subset of the examples
//     and verifies candidates against the full set, mirroring the
//     fastsynth architecture. Because the final candidate is minimal
//     for a subset and consistent with the whole set, it is also
//     minimal for the whole set.
//   - Constants are mined from the examples (values, differences,
//     neighbours) rather than supplied by the user, reproducing the
//     fastsynth behaviour the paper prefers over grammar-guided CVC4
//     (Section VII).
//
// Goroutine safety: the package keeps no mutable package-level state —
// every search allocates its own enumerator — so Enumerate and
// Synthesize are safe to call from multiple goroutines concurrently,
// provided the caller does not mutate the examples or option slices
// while a call is in flight.
package synth

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/expr"
)

// Example is one input/output sample for the target function: In binds
// every input variable; Out is the required function value.
type Example struct {
	In  map[string]expr.Value
	Out expr.Value
}

// Lookup lets an Example act as an evaluation environment (primed
// variables are never consulted because candidate expressions range
// over current-state inputs only).
func (e Example) Lookup(name string, primed bool) (expr.Value, bool) {
	if primed {
		return expr.Value{}, false
	}
	v, ok := e.In[name]
	return v, ok
}

// Var declares an input variable of the target function.
type Var struct {
	Name string
	Type expr.Type
}

// Options tunes the synthesis search.
type Options struct {
	// MaxSize bounds the size (node count) of enumerated
	// expressions. Zero means DefaultMaxSize.
	MaxSize int
	// EnableMul adds integer multiplication to the grammar.
	// Disabled by default: none of the paper's benchmarks need it
	// and it widens the search considerably.
	EnableMul bool
	// ExtraArithConsts are added to the mined arithmetic constant
	// pool (always includes 0 and 1 plus mined differences).
	ExtraArithConsts []int64
	// ExtraCmpConsts are added to the mined comparison constant
	// pool (always includes the example input/output values).
	ExtraCmpConsts []int64
	// DiffVars restricts difference mining (output − input, the
	// increments additive update functions need) to the named input
	// variables. Empty means all integer inputs. The predicate
	// generator passes the variable whose next function is being
	// synthesized, which keeps unrelated inputs' values out of the
	// arithmetic pool and so out of the result text.
	DiffVars []string
	// Seeds are expressions to try before searching. If a seed is
	// consistent with every example it is returned immediately;
	// predicate generation uses this for cross-window reuse, which
	// both stabilises the predicate alphabet and implements the
	// paper's observation that repeating trace patterns should be
	// processed once.
	Seeds []expr.Expr
	// Work, when non-nil, is atomically incremented by the number of
	// candidate expressions each search considers. Telemetry only: it
	// never affects the search, and one counter may be shared by
	// concurrent searches.
	Work *int64
}

// DefaultMaxSize bounds enumeration when Options.MaxSize is zero. The
// largest expressions the paper reports (saturation guards) fit well
// inside it.
const DefaultMaxSize = 12

// ErrInconsistent is returned when two examples give the same input
// valuation but different outputs: no function can fit them.
var ErrInconsistent = errors.New("synth: examples are inconsistent (same input, different outputs)")

// ErrNoSolution is returned when no expression within the size bound
// matches all examples.
var ErrNoSolution = errors.New("synth: no expression within size bound fits the examples")

// Synthesize finds the smallest expression over vars consistent with
// all examples, using a CEGIS loop around Enumerate. The result type
// is the type of the example outputs.
func Synthesize(vars []Var, examples []Example, opts Options) (expr.Expr, error) {
	return SynthesizeContext(context.Background(), vars, examples, opts)
}

// SynthesizeContext is Synthesize with cancellation: when ctx is
// cancelled mid-search the context's error is returned promptly. A
// completed search is unaffected by ctx, so results are identical to
// Synthesize whenever the call runs to completion.
func SynthesizeContext(ctx context.Context, vars []Var, examples []Example, opts Options) (expr.Expr, error) {
	if len(examples) == 0 {
		return nil, errors.New("synth: no examples")
	}
	if err := checkConsistent(examples); err != nil {
		return nil, err
	}
	// Seed pass: reuse a previously synthesised expression when it
	// already explains this window.
	for _, seed := range opts.Seeds {
		if consistent(seed, examples) {
			return seed, nil
		}
	}

	// CEGIS: synthesise on a growing subset, verify on the full set.
	// Constants are mined from the full set so the pools are stable
	// across iterations.
	pools := minePools(vars, examples, opts)
	sub := []Example{examples[0]}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cand, err := enumerate(ctx, vars, sub, pools, opts)
		if err != nil {
			return nil, err
		}
		cex := findCounterexample(cand, examples)
		if cex == nil {
			return cand, nil
		}
		sub = append(sub, *cex)
	}
}

// Enumerate is the inner synthesis engine: bottom-up, size-ordered
// enumeration with observational-equivalence pruning on the full
// example set (no CEGIS subset loop). Exposed for benchmarking the two
// strategies against each other.
func Enumerate(vars []Var, examples []Example, opts Options) (expr.Expr, error) {
	if len(examples) == 0 {
		return nil, errors.New("synth: no examples")
	}
	if err := checkConsistent(examples); err != nil {
		return nil, err
	}
	pools := minePools(vars, examples, opts)
	return enumerate(context.Background(), vars, examples, pools, opts)
}

// checkConsistent rejects example sets no function can fit: two
// examples with the same input valuation but different outputs.
func checkConsistent(examples []Example) error {
	seen := make(map[string]expr.Value, len(examples))
	for _, ex := range examples {
		key := inputKey(ex.In)
		if prev, ok := seen[key]; ok {
			if !prev.Equal(ex.Out) {
				return fmt.Errorf("%w: input %s maps to both %s and %s",
					ErrInconsistent, key, prev, ex.Out)
			}
			continue
		}
		seen[key] = ex.Out
	}
	return nil
}

func inputKey(in map[string]expr.Value) string {
	names := make([]string, 0, len(in))
	for n := range in {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(in[n].String())
		b.WriteByte(';')
	}
	return b.String()
}

// consistent reports whether the expression matches every example —
// the predicate the seed pass uses.
func consistent(e expr.Expr, examples []Example) bool {
	for _, ex := range examples {
		v, err := e.Eval(ex)
		if err != nil || !v.Equal(ex.Out) {
			return false
		}
	}
	return true
}

func findCounterexample(e expr.Expr, examples []Example) *Example {
	for i := range examples {
		v, err := e.Eval(examples[i])
		if err != nil || !v.Equal(examples[i].Out) {
			return &examples[i]
		}
	}
	return nil
}

// pools holds the constant pools mined from the examples.
type pools struct {
	arith []int64  // literals allowed inside arithmetic
	cmp   []int64  // literals allowed on comparison right-hand sides
	syms  []string // symbol literals (for = / != and sym-typed results)
}

// minePools derives constant pools from the examples, fastsynth-style:
// the user supplies no grammar and constants come from the data.
//
//   - Arithmetic pool: 0, 1, plus every difference out−in between an
//     integer output and each integer input in the same example (these
//     are the increments that additive update functions need).
//   - Comparison pool: every integer value occurring as an input or
//     output, plus each value ±1 (thresholds are always observed at or
//     next to the data).
//   - Symbol pool: every symbol occurring in the examples.
func minePools(vars []Var, examples []Example, opts Options) pools {
	arithSet := map[int64]bool{0: true, 1: true}
	cmpSet := map[int64]bool{}
	symSet := map[string]bool{}

	addVal := func(v expr.Value) {
		switch v.T {
		case expr.Int:
			cmpSet[v.I] = true
			cmpSet[v.I+1] = true
			cmpSet[v.I-1] = true
		case expr.Sym:
			symSet[v.S] = true
		}
	}
	for _, ex := range examples {
		for _, v := range ex.In {
			addVal(v)
		}
		addVal(ex.Out)
		if ex.Out.T == expr.Int {
			for name, v := range ex.In {
				if v.T != expr.Int {
					continue
				}
				if len(opts.DiffVars) > 0 && !containsStr(opts.DiffVars, name) {
					continue
				}
				arithSet[ex.Out.I-v.I] = true
			}
		}
	}
	for _, c := range opts.ExtraArithConsts {
		arithSet[c] = true
	}
	for _, c := range opts.ExtraCmpConsts {
		cmpSet[c] = true
	}
	var p pools
	for c := range arithSet {
		p.arith = append(p.arith, c)
	}
	for c := range cmpSet {
		p.cmp = append(p.cmp, c)
	}
	for s := range symSet {
		p.syms = append(p.syms, s)
	}
	sort.Slice(p.arith, func(i, j int) bool { return less64(p.arith[i], p.arith[j]) })
	sort.Slice(p.cmp, func(i, j int) bool { return less64(p.cmp[i], p.cmp[j]) })
	sort.Strings(p.syms)
	return p
}

// less64 orders constants by magnitude then sign, so that small
// constants (0, 1, -1, 2, …) are tried first and tie-breaking between
// equal-sized expressions is deterministic and favours simple values.
func less64(a, b int64) bool {
	aa, bb := abs64(a), abs64(b)
	if aa != bb {
		return aa < bb
	}
	return a > b // positive before negative
}

func containsStr(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
