// Package pipeline provides light-weight per-stage metrics for the
// learning pipeline: wall-clock and CPU time plus named counters for
// each stage (predicate abstraction, model construction). cmd/repro
// prints a stage table per experiment; CPU time above wall time there
// is work on other threads, such as the garbage collector's.
package pipeline

import (
	"fmt"
	"strings"
	"sync"
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

// Metrics collects the stages of one pipeline run. The zero value is
// ready to use; methods are safe for concurrent use.
type Metrics struct {
	mu     sync.Mutex
	stages []StageMetrics
}

// Start opens a span for one stage. End the span to record it.
func (m *Metrics) Start(name string) *Span {
	return &Span{m: m, name: name, wallStart: time.Now(), cpuStart: CPUTime()}
}

// Stages returns the recorded stages in completion order.
func (m *Metrics) Stages() []StageMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]StageMetrics(nil), m.stages...)
}

// String renders the stages as an aligned table.
func (m *Metrics) String() string { return Format(m.Stages()) }

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

// Span measures one in-progress stage.
type Span struct {
	m         *Metrics
	name      string
	wallStart time.Time
	cpuStart  time.Duration
	counters  []Counter
	idx       map[string]int // counter name → counters index, for AddCounter merging
}

// Add attaches a named counter to the stage (insertion order is
// preserved in the report). Repeated Adds of the same name append
// duplicate rows; use AddCounter for increments.
func (s *Span) Add(name string, v int64) *Span {
	s.counters = append(s.counters, Counter{Name: name, Value: v})
	return s
}

// AddCounter increments the named counter, merging by name: the first
// call appends the counter (preserving insertion order), later calls
// add into it, so per-item increments from the streaming path keep
// Counters bounded by the number of distinct names.
func (s *Span) AddCounter(name string, v int64) *Span {
	if s.idx == nil {
		s.idx = make(map[string]int, 8)
		for i, c := range s.counters {
			s.idx[c.Name] = i
		}
	}
	if i, ok := s.idx[name]; ok {
		s.counters[i].Value += v
		return s
	}
	s.idx[name] = len(s.counters)
	s.counters = append(s.counters, Counter{Name: name, Value: v})
	return s
}

// End closes the span and records the stage.
func (s *Span) End() StageMetrics {
	sm := StageMetrics{
		Name:     s.name,
		Wall:     time.Since(s.wallStart),
		CPU:      CPUTime() - s.cpuStart,
		Counters: s.counters,
	}
	s.m.mu.Lock()
	s.m.stages = append(s.m.stages, sm)
	s.m.mu.Unlock()
	return sm
}
