// Package experiments defines the paper's evaluation: the six
// benchmark systems, the two tables and the scalability figure, plus
// the ablations DESIGN.md calls out. It is shared by cmd/repro (which
// prints the tables) and the repository-root benchmarks (which
// regenerate each row under `go test -bench`).
package experiments

import (
	"context"
	"fmt"
	"time"

	"repro"
	"repro/internal/trace"
)

// Case is one benchmark system of Section IV.
type Case struct {
	// Name as used in the paper's tables.
	Name string
	// Figure is the paper figure showing the learned model.
	Figure string
	// PaperStates is the state count the paper reports (Table II,
	// Model Learning column).
	PaperStates int
	// PaperTraceLen is the trace length the paper reports.
	PaperTraceLen int
	// Generate produces the benchmark trace.
	Generate func() (*trace.Trace, error)
	// Options are the pipeline options for this benchmark.
	Options repro.LearnOptions
}

// Cases returns the six benchmarks in the paper's Table I order.
func Cases() []Case {
	return []Case{
		{
			Name: "USB Slot", Figure: "Fig 1b", PaperStates: 4, PaperTraceLen: 39,
			Generate: GenUSBSlot,
		},
		{
			Name: "USB Attach", Figure: "Fig 3", PaperStates: 7, PaperTraceLen: 259,
			Generate: GenUSBAttach,
		},
		{
			Name: "Counter", Figure: "Fig 5", PaperStates: 4, PaperTraceLen: 447,
			Generate: GenCounter,
		},
		{
			Name: "Serial I/O Port", Figure: "Fig 2b", PaperStates: 6, PaperTraceLen: 2076,
			Generate: GenSerial,
		},
		{
			Name: "Linux Kernel", Figure: "Fig 6", PaperStates: 8, PaperTraceLen: 20165,
			Generate: GenRTLinux,
		},
		{
			Name: "Integrator", Figure: "Fig 4", PaperStates: 3, PaperTraceLen: 32768,
			Generate: GenIntegrator,
		},
	}
}

// Telemetry, when non-nil, is attached to every experiment run
// (cmd/repro's -metrics-addr flag): counters and latency histograms
// accumulate across runs into its registry. It never changes results.
var Telemetry *repro.Telemetry

// Context, when non-nil, cancels every experiment run at the next
// observation or solver-round boundary (cmd/repro wires its signal
// context here so ^C aborts a long evaluation cleanly).
var Context context.Context

// withHooks applies the package-level telemetry and cancellation
// context to a run's options.
func withHooks(opts repro.LearnOptions) repro.LearnOptions {
	opts.Telemetry = Telemetry
	opts.Context = Context
	return opts
}

// CaseByName finds a case by its table name.
func CaseByName(name string) (Case, error) {
	for _, c := range Cases() {
		if c.Name == name {
			return c, nil
		}
	}
	return Case{}, fmt.Errorf("experiments: unknown case %q", name)
}

// LearnCase runs the full pipeline on one benchmark.
func LearnCase(c Case, timeout time.Duration) (*repro.Model, error) {
	tr, err := c.Generate()
	if err != nil {
		return nil, err
	}
	opts := withHooks(c.Options)
	opts.Timeout = timeout
	return repro.Learn(tr, opts)
}

// Table1Row is one row of Table I: segmented vs non-segmented
// model-construction runtime at the same starting N.
type Table1Row struct {
	Name          string
	States        int // N the search converged to (segmented run)
	TraceLen      int
	SegmentedTime time.Duration
	FullTime      time.Duration
	FullTimedOut  bool
}

// Table1 reproduces Table I. Both runs start at the converged state
// count N for a fair comparison (the paper's methodology), and the
// non-segmented run is bounded by fullTimeout — the paper's ">16
// hours" rows are reported as timeouts.
func Table1(cases []Case, fullTimeout time.Duration) ([]Table1Row, error) {
	var rows []Table1Row
	for _, c := range cases {
		tr, err := c.Generate()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
		// Discover N with a plain segmented run.
		opts := withHooks(c.Options)
		probe, err := repro.Learn(tr, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: probe: %w", c.Name, err)
		}
		n := probe.States

		opts.StartStates = n
		segStart := time.Now()
		if _, err := repro.Learn(tr, opts); err != nil {
			return nil, fmt.Errorf("%s: segmented: %w", c.Name, err)
		}
		segTime := time.Since(segStart)

		opts.NonSegmented = true
		opts.Timeout = fullTimeout
		fullStart := time.Now()
		_, err = repro.Learn(tr, opts)
		fullTime := time.Since(fullStart)
		timedOut := false
		if err != nil {
			if !isTimeout(err) {
				return nil, fmt.Errorf("%s: full trace: %w", c.Name, err)
			}
			timedOut = true
		}
		rows = append(rows, Table1Row{
			Name:          c.Name,
			States:        n,
			TraceLen:      tr.Len(),
			SegmentedTime: segTime,
			FullTime:      fullTime,
			FullTimedOut:  timedOut,
		})
	}
	return rows, nil
}

// Table2Row is one row of Table II: state merge vs model learning.
type Table2Row struct {
	Name             string
	TraceLen         int
	MergeTime        time.Duration
	MergeStates      int
	MergeTimedOut    bool // the paper's "no model" entries
	LearnTime        time.Duration
	LearnStates      int
	PaperMergeStates string // what the paper reports, for the report
	PaperLearnStates int
}

// paperMergeStates is Table II's State Merge "Number of States" column.
var paperMergeStates = map[string]string{
	"USB Slot": "6", "USB Attach": "91", "Counter": "377",
	"Serial I/O Port": "28", "Linux Kernel": "no model", "Integrator": "no model",
}

// Table2 reproduces Table II: the MINT-style baseline on raw trace
// tokens against the full pipeline.
func Table2(cases []Case, mergeTimeout time.Duration) ([]Table2Row, error) {
	var rows []Table2Row
	for _, c := range cases {
		tr, err := c.Generate()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
		words := [][]string{repro.Tokenize(tr)}

		mergeStart := time.Now()
		base, err := repro.LearnBaseline(repro.MINT, words, repro.BaselineOptions{Timeout: mergeTimeout})
		mergeTime := time.Since(mergeStart)
		mergeStates, mergeTimedOut := 0, false
		if err != nil {
			if !isTimeout(err) {
				return nil, fmt.Errorf("%s: baseline: %w", c.Name, err)
			}
			mergeTimedOut = true
		} else {
			mergeStates = base.States
		}

		learnStart := time.Now()
		model, err := repro.Learn(tr, withHooks(c.Options))
		if err != nil {
			return nil, fmt.Errorf("%s: learn: %w", c.Name, err)
		}
		learnTime := time.Since(learnStart)

		rows = append(rows, Table2Row{
			Name:             c.Name,
			TraceLen:         tr.Len(),
			MergeTime:        mergeTime,
			MergeStates:      mergeStates,
			MergeTimedOut:    mergeTimedOut,
			LearnTime:        learnTime,
			LearnStates:      model.States,
			PaperMergeStates: paperMergeStates[c.Name],
			PaperLearnStates: c.PaperStates,
		})
	}
	return rows, nil
}

// Fig7Point is one point of the Fig 7 log–log scalability plot.
type Fig7Point struct {
	TraceLen      int
	SegmentedTime time.Duration
	FullTime      time.Duration
	FullTimedOut  bool
}

// Fig7 reproduces the scalability figure: integrator traces of
// exponentially increasing length, segmented vs non-segmented, with
// the non-segmented run bounded by fullTimeout.
func Fig7(lengths []int, fullTimeout time.Duration) ([]Fig7Point, error) {
	var points []Fig7Point
	for _, n := range lengths {
		tr, err := GenIntegratorLen(n)
		if err != nil {
			return nil, err
		}
		segStart := time.Now()
		if _, err := repro.Learn(tr, withHooks(repro.LearnOptions{})); err != nil {
			return nil, fmt.Errorf("fig7 len %d segmented: %w", n, err)
		}
		segTime := time.Since(segStart)

		fullStart := time.Now()
		_, err = repro.Learn(tr, withHooks(repro.LearnOptions{NonSegmented: true, Timeout: fullTimeout}))
		fullTime := time.Since(fullStart)
		timedOut := false
		if err != nil {
			if !isTimeout(err) {
				return nil, fmt.Errorf("fig7 len %d full: %w", n, err)
			}
			timedOut = true
		}
		points = append(points, Fig7Point{
			TraceLen:      n,
			SegmentedTime: segTime,
			FullTime:      fullTime,
			FullTimedOut:  timedOut,
		})
	}
	return points, nil
}

func isTimeout(err error) bool {
	return err != nil && (errorsIs(err, repro.ErrTimeout))
}
