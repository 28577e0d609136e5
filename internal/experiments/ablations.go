package experiments

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/expr"
	"repro/internal/synth"
	"repro/internal/trace"
)

// WindowRow is one point of the window-size ablation (Section III-C:
// different 1 < w ≤ |P| should learn the same automaton).
type WindowRow struct {
	Window   int
	States   int
	Segments int
	Time     time.Duration
}

// AblationWindow sweeps the segmentation window on one case.
func AblationWindow(c Case, windows []int, timeout time.Duration) ([]WindowRow, error) {
	tr, err := c.Generate()
	if err != nil {
		return nil, err
	}
	var rows []WindowRow
	for _, w := range windows {
		opts := withHooks(c.Options)
		opts.SegmentWindow = w
		opts.Timeout = timeout
		start := time.Now()
		m, err := repro.Learn(tr, opts)
		if err != nil {
			return nil, fmt.Errorf("w=%d: %w", w, err)
		}
		rows = append(rows, WindowRow{
			Window:   w,
			States:   m.States,
			Segments: m.LearnStats.Segments,
			Time:     time.Since(start),
		})
	}
	return rows, nil
}

// ComplianceRow is one point of the compliance-length ablation
// (Section III-C: higher l tightens the model towards exactness).
type ComplianceRow struct {
	L      int
	States int
	Time   time.Duration
}

// AblationCompliance sweeps the compliance length l on one case.
func AblationCompliance(c Case, ls []int, timeout time.Duration) ([]ComplianceRow, error) {
	tr, err := c.Generate()
	if err != nil {
		return nil, err
	}
	var rows []ComplianceRow
	for _, l := range ls {
		opts := withHooks(c.Options)
		opts.ComplianceLen = l
		if opts.SegmentWindow == 0 && l > 3 {
			// The compliance window cannot exceed the segment
			// window; widen it with l.
			opts.SegmentWindow = l
		}
		opts.Timeout = timeout
		start := time.Now()
		m, err := repro.Learn(tr, opts)
		if err != nil {
			return nil, fmt.Errorf("l=%d: %w", l, err)
		}
		rows = append(rows, ComplianceRow{L: l, States: m.States, Time: time.Since(start)})
	}
	return rows, nil
}

// SymmetryRow is one point of the symmetry-breaking ablation: the
// state-ordering constraint is this implementation's own design
// choice (DESIGN.md §5), so its effect is measured explicitly.
type SymmetryRow struct {
	Name        string
	WithTime    time.Duration
	WithoutTime time.Duration
	States      int // must agree between the two runs
}

// AblationSymmetry measures learning with and without the
// state-ordering symmetry break.
func AblationSymmetry(cases []Case, timeout time.Duration) ([]SymmetryRow, error) {
	var rows []SymmetryRow
	for _, c := range cases {
		tr, err := c.Generate()
		if err != nil {
			return nil, err
		}
		opts := withHooks(c.Options)
		opts.Timeout = timeout
		start := time.Now()
		m1, err := repro.Learn(tr, opts)
		if err != nil {
			return nil, fmt.Errorf("%s with symmetry: %w", c.Name, err)
		}
		withTime := time.Since(start)

		opts.NoSymmetryBreaking = true
		start = time.Now()
		m2, err := repro.Learn(tr, opts)
		if err != nil {
			return nil, fmt.Errorf("%s without symmetry: %w", c.Name, err)
		}
		withoutTime := time.Since(start)
		if m1.States != m2.States {
			return nil, fmt.Errorf("%s: symmetry breaking changed the result (%d vs %d states)",
				c.Name, m1.States, m2.States)
		}
		rows = append(rows, SymmetryRow{
			Name:        c.Name,
			WithTime:    withTime,
			WithoutTime: withoutTime,
			States:      m1.States,
		})
	}
	return rows, nil
}

// SynthStyleRow contrasts synthesis strategies on one example set
// (Section VII's fastsynth vs CVC4-default discussion).
type SynthStyleRow struct {
	Name        string
	MinimalExpr string
	MinimalSize int
	TrivialExpr string
	TrivialSize int
}

// SynthStyles reproduces the Section VII comparison: the minimal
// expression found by enumerative CEGIS against the trivial ite chain
// a syntax-unguided solver produces.
func SynthStyles() ([]SynthStyleRow, error) {
	type sample struct {
		name string
		ins  []int64
		outs []int64
	}
	samples := []sample{
		{"doubling 1,2,4,8 (paper §VII)", []int64{1, 2, 4}, []int64{2, 4, 8}},
		{"counter ascent", []int64{1, 2, 3}, []int64{2, 3, 4}},
		{"counter turn at 128", []int64{127, 128}, []int64{128, 127}},
	}
	vars := []synth.Var{{Name: "x", Type: expr.Int}}
	var rows []SynthStyleRow
	for _, s := range samples {
		exs := make([]synth.Example, len(s.ins))
		for i := range s.ins {
			exs[i] = synth.Example{
				In:  map[string]expr.Value{"x": expr.IntVal(s.ins[i])},
				Out: expr.IntVal(s.outs[i]),
			}
		}
		minimal, err := synth.Synthesize(vars, exs, synth.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		trivial, err := synth.IteChain(vars, exs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		rows = append(rows, SynthStyleRow{
			Name:        s.name,
			MinimalExpr: minimal.String(),
			MinimalSize: minimal.Size(),
			TrivialExpr: trivial.String(),
			TrivialSize: trivial.Size(),
		})
	}
	return rows, nil
}

// CoverageReport lists alphabet symbols of the learned model against
// the datasheet's full command set — the paper's USB Slot observation
// that unexercised scenarios are visible as missing transitions.
type CoverageReport struct {
	Exercised []string
	Missing   []string
}

// SlotCoverage compares the USB Slot model's alphabet against the full
// xHCI slot command set.
func SlotCoverage(m *repro.Model) CoverageReport {
	full := []string{
		"CR_ENABLE_SLOT", "CR_DISABLE_SLOT", "CR_ADDR_DEV_BSR0",
		"CR_ADDR_DEV_BSR1", "CR_CONFIG_END", "CR_STOP_END", "CR_RESET_DEVICE",
	}
	have := map[string]bool{}
	for _, sym := range m.Automaton.Symbols() {
		// Event predicates render as event = 'NAME'.
		for _, cmd := range full {
			if sym == "event = '"+cmd+"'" {
				have[cmd] = true
			}
		}
	}
	var rep CoverageReport
	for _, cmd := range full {
		if have[cmd] {
			rep.Exercised = append(rep.Exercised, cmd)
		} else {
			rep.Missing = append(rep.Missing, cmd)
		}
	}
	return rep
}

// TraceOf regenerates a case's trace (convenience for the CLI).
func TraceOf(c Case) (*trace.Trace, error) { return c.Generate() }
