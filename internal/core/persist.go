package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/automaton"
	"repro/internal/expr"
	"repro/internal/learn"
	"repro/internal/predicate"
	"repro/internal/trace"
)

// Model persistence: a line-oriented text format ("t2m-model v1") that
// captures everything needed to reload a learned model and keep using
// it as a monitor on fresh traces of the same system —
//
//   - the trace schema (names, types, roles),
//   - the predicate-generator configuration (window) and its
//     accumulated next-function seeds, so a reloaded model abstracts
//     fresh traces to the same predicate text it was learned with,
//   - the predicate alphabet (canonical expression strings, which the
//     expression parser round-trips),
//   - the automaton (state count, initial state, transitions), and
//   - a trailing "genstate" line holding the full generator snapshot
//     (interner + window memo + seeds, the checkpoint encoding of
//     DESIGN.md note 14) as one JSON object.
//
// The genstate section is what makes a reload abstraction-faithful:
// seeds alone are not enough, because synthesis with the *final* seed
// pool can pick a later-seeded expression for an early window that was
// originally synthesized before that seed existed (observed on the
// serial port's mixed-event windows, where the reloaded model then
// rejected its own training trace). Restoring the memo replays every
// learned window to its original predicate exactly; only genuinely
// novel windows reach the synthesizer. Files without the section (from
// older writers) still load, with the old seeds-only behaviour.
//
// The format is deliberately human-readable; learned models are design
// artifacts people review (the one JSON line is the machine-shaped
// tail).

const modelMagic = "t2m-model v1"

// maxModelStates bounds the state count ReadModel accepts. The header
// count sizes automaton.New's per-state tables before any transition
// is read, so a corrupt count must be refused up front. Learned models
// are far smaller: the SAT search is exponential in N, and
// learn.Options.MaxStates defaults to 64.
const maxModelStates = 1 << 16

// WriteModel serialises the model.
func WriteModel(w io.Writer, m *Model) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, modelMagic)

	schema := m.pipeline.schema
	fields := make([]string, schema.Len())
	for i := 0; i < schema.Len(); i++ {
		v := schema.Var(i)
		f := v.Name + ":" + v.Type.String()
		if v.Role == trace.Input {
			f += ":input"
		}
		fields[i] = f
	}
	fmt.Fprintf(bw, "schema %s\n", strings.Join(fields, ","))
	fmt.Fprintf(bw, "window %d\n", m.pipeline.gen.Window())
	fmt.Fprintf(bw, "states %d\n", m.Automaton.NumStates())
	fmt.Fprintf(bw, "initial %d\n", m.Automaton.Initial())

	// Alphabet in first-seen order, referenced by index below.
	symbols := m.Automaton.Symbols()
	symID := make(map[string]int, len(symbols))
	fmt.Fprintf(bw, "alphabet %d\n", len(symbols))
	for i, sym := range symbols {
		symID[sym] = i
		fmt.Fprintf(bw, "p%d %s\n", i, sym)
	}

	trs := m.Automaton.Transitions()
	fmt.Fprintf(bw, "transitions %d\n", len(trs))
	for _, tr := range trs {
		fmt.Fprintf(bw, "%d p%d %d\n", tr.From, symID[tr.Symbol], tr.To)
	}

	seeds := m.pipeline.gen.Seeds()
	names := make([]string, 0, len(seeds))
	total := 0
	for name, es := range seeds {
		names = append(names, name)
		total += len(es)
	}
	sort.Strings(names)
	fmt.Fprintf(bw, "seeds %d\n", total)
	for _, name := range names {
		for _, e := range seeds[name] {
			fmt.Fprintf(bw, "%s %s\n", name, e)
		}
	}

	js, err := json.Marshal(m.pipeline.gen.Snapshot())
	if err != nil {
		return fmt.Errorf("model: generator snapshot: %w", err)
	}
	fmt.Fprintf(bw, "genstate %s\n", js)
	return bw.Flush()
}

// ReadModel deserialises a model written by WriteModel. The returned
// model carries a fresh Pipeline primed with the saved seeds, so Check
// and Explain behave as on the original. Header counts are checked but
// never trusted to size allocations: tables grow with the lines
// actually read.
func ReadModel(r io.Reader) (*Model, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := func() (string, error) {
		for sc.Scan() {
			l := strings.TrimSpace(sc.Text())
			if l != "" {
				return l, nil
			}
		}
		if err := sc.Err(); err != nil {
			return "", err
		}
		return "", io.ErrUnexpectedEOF
	}

	l, err := line()
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	if l != modelMagic {
		return nil, fmt.Errorf("model: bad magic %q", l)
	}

	// schema
	l, err = line()
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	rest, ok := strings.CutPrefix(l, "schema ")
	if !ok {
		return nil, fmt.Errorf("model: expected schema line, got %q", l)
	}
	var vars []trace.VarDef
	for _, f := range strings.Split(rest, ",") {
		parts := strings.Split(f, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("model: bad schema field %q", f)
		}
		var ty expr.Type
		switch parts[1] {
		case "int":
			ty = expr.Int
		case "bool":
			ty = expr.Bool
		case "sym":
			ty = expr.Sym
		default:
			return nil, fmt.Errorf("model: bad type in schema field %q", f)
		}
		role := trace.State
		if len(parts) == 3 {
			if parts[2] != "input" {
				return nil, fmt.Errorf("model: bad role in schema field %q", f)
			}
			role = trace.Input
		}
		vars = append(vars, trace.VarDef{Name: parts[0], Type: ty, Role: role})
	}
	schema, err := trace.NewSchema(vars...)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	types := schema.Types()

	// intField reads a "prefix n" line and checks n against [lo, hi].
	intField := func(prefix string, lo, hi int) (int, error) {
		l, err := line()
		if err != nil {
			return 0, err
		}
		rest, ok := strings.CutPrefix(l, prefix+" ")
		if !ok {
			return 0, fmt.Errorf("expected %q line, got %q", prefix, l)
		}
		n, err := strconv.Atoi(rest)
		if err != nil {
			return 0, err
		}
		switch {
		case n < lo:
			return 0, fmt.Errorf("%s %d is below %d", prefix, n, lo)
		case n > hi:
			return 0, fmt.Errorf("%s %d exceeds %d", prefix, n, hi)
		}
		return n, nil
	}

	window, err := intField("window", 2, math.MaxInt)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	states, err := intField("states", 1, maxModelStates)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	initial, err := intField("initial", 0, states-1)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	nfa, err := automaton.New(states, automaton.State(initial))
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}

	nAlpha, err := intField("alphabet", 0, math.MaxInt)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	var symbols []string
	alphabet := map[string]*predicate.Predicate{}
	for i := 0; i < nAlpha; i++ {
		l, err := line()
		if err != nil {
			return nil, fmt.Errorf("model: %w", err)
		}
		tag, text, ok := strings.Cut(l, " ")
		if !ok || tag != fmt.Sprintf("p%d", i) {
			return nil, fmt.Errorf("model: bad alphabet line %q", l)
		}
		e, err := expr.Parse(text, types)
		if err != nil {
			return nil, fmt.Errorf("model: alphabet entry %d: %w", i, err)
		}
		if canon := e.String(); canon != text {
			return nil, fmt.Errorf("model: alphabet entry %d is not canonical: %q vs %q", i, text, canon)
		}
		symbols = append(symbols, text)
		alphabet[text] = &predicate.Predicate{Expr: e, Key: text}
	}

	nTrans, err := intField("transitions", 0, math.MaxInt)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	// Edges are added symbol by symbol in alphabet order, so the
	// automaton's first-seen symbol order — the order WriteModel writes
	// the alphabet in — survives a save and reload.
	bySym := make([][]automaton.Transition, len(symbols))
	for i := 0; i < nTrans; i++ {
		l, err := line()
		if err != nil {
			return nil, fmt.Errorf("model: %w", err)
		}
		parts := strings.Fields(l)
		if len(parts) != 3 || !strings.HasPrefix(parts[1], "p") {
			return nil, fmt.Errorf("model: bad transition line %q", l)
		}
		from, err1 := strconv.Atoi(parts[0])
		sym, err2 := strconv.Atoi(parts[1][1:])
		to, err3 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || err3 != nil || sym < 0 || sym >= nAlpha {
			return nil, fmt.Errorf("model: bad transition line %q", l)
		}
		bySym[sym] = append(bySym[sym], automaton.Transition{
			From: automaton.State(from), Symbol: symbols[sym], To: automaton.State(to)})
	}
	for _, trs := range bySym {
		for _, tr := range trs {
			if err := nfa.AddTransition(tr.From, tr.Symbol, tr.To); err != nil {
				return nil, fmt.Errorf("model: %w", err)
			}
		}
	}

	nSeeds, err := intField("seeds", 0, math.MaxInt)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	seeds := map[string][]expr.Expr{}
	for i := 0; i < nSeeds; i++ {
		l, err := line()
		if err != nil {
			return nil, fmt.Errorf("model: %w", err)
		}
		name, text, ok := strings.Cut(l, " ")
		if !ok || schema.Index(name) < 0 {
			return nil, fmt.Errorf("model: bad seed line %q", l)
		}
		e, err := expr.Parse(text, types)
		if err != nil {
			return nil, fmt.Errorf("model: seed %d: %w", i, err)
		}
		seeds[name] = append(seeds[name], e)
	}

	// Optional generator-state tail: the full interner + window-memo
	// snapshot. When present it supersedes the seeds section (which it
	// also contains) and makes the reload abstraction-faithful.
	var snap *predicate.SnapshotState
	if l, err := line(); err == nil {
		rest, ok := strings.CutPrefix(l, "genstate ")
		if !ok {
			return nil, fmt.Errorf("model: unexpected trailing line %q", l)
		}
		snap = &predicate.SnapshotState{}
		if err := json.Unmarshal([]byte(rest), snap); err != nil {
			return nil, fmt.Errorf("model: genstate: %w", err)
		}
	} else if err != io.ErrUnexpectedEOF {
		return nil, fmt.Errorf("model: %w", err)
	}

	pipeline, err := NewPipeline(schema, Options{
		Predicate: predicate.Options{Window: window},
		Learn:     learn.Options{Segmented: true},
	})
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	if snap != nil {
		if _, err := pipeline.gen.Restore(snap); err != nil {
			return nil, fmt.Errorf("model: %w", err)
		}
	} else {
		pipeline.gen.SetSeeds(seeds)
	}

	return &Model{
		Automaton: nfa,
		Alphabet:  alphabet,
		States:    states,
		pipeline:  pipeline,
	}, nil
}
