// Package pipeline provides light-weight per-stage metrics for the
// learning pipeline: wall-clock and CPU time plus named counters for
// each stage (predicate abstraction, model construction). cmd/repro
// prints a stage table per experiment; CPU time above wall time there
// is work on other threads, such as the garbage collector's.
package pipeline

import (
	"fmt"
	"strings"
	"time"
)

// Counter is one named measurement of a stage.
type Counter struct {
	Name  string
	Value int64
}

// StageMetrics is the record of one completed pipeline stage.
type StageMetrics struct {
	Name string
	// Wall is the stage's elapsed wall-clock time.
	Wall time.Duration
	// CPU is the process CPU time (user+system, all threads)
	// consumed during the stage; zero on platforms without rusage.
	CPU time.Duration
	// Counters are stage-specific counts (windows, memo hits, solver
	// calls, …) in insertion order.
	Counters []Counter
}

// Counter returns the named counter's value, or 0.
func (s *StageMetrics) Counter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Format renders stage metrics as an aligned table: one row per
// stage, wall and CPU time, then the stage's counters.
func Format(stages []StageMetrics) string {
	var b strings.Builder
	for _, s := range stages {
		fmt.Fprintf(&b, "%-12s wall %10s  cpu %10s",
			s.Name, s.Wall.Round(time.Microsecond), s.CPU.Round(time.Microsecond))
		for _, c := range s.Counters {
			fmt.Fprintf(&b, "  %s=%d", c.Name, c.Value)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Stage is one pipeline stage in progress. StartStage opens it; End
// records it once for both consumers: its counters become the trace
// span's end attributes and the counters of the stage-table row it
// returns.
type Stage struct {
	// Span is the stage's trace span (0 when tracing is off), the
	// parent of the stage's unit spans.
	Span SpanID

	tr        *Tracer
	name      string
	wallStart time.Time
	cpuStart  time.Duration
}

// StartStage opens the named stage: a span under run on tr, and the
// stage's wall and CPU clocks.
func StartStage(tr *Tracer, run SpanID, name string) Stage {
	return Stage{Span: tr.Start(run, name), tr: tr, name: name, wallStart: time.Now(), cpuStart: CPUTime()}
}

// End closes the stage with its counters, in report order, and returns
// its stage-table row.
func (s Stage) End(counters ...Counter) StageMetrics {
	row := StageMetrics{Name: s.name, Wall: time.Since(s.wallStart), CPU: CPUTime() - s.cpuStart, Counters: counters}
	if s.tr.Enabled() {
		attrs := make([]Attr, len(counters))
		for i, c := range counters {
			attrs[i] = Int(c.Name, c.Value)
		}
		s.tr.End(s.Span, attrs...)
	}
	return row
}
