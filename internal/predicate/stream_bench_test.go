package predicate

import (
	"bytes"
	"testing"

	"repro/internal/expr"
	"repro/internal/systems/integrator"
	"repro/internal/trace"
)

// BenchmarkSequenceSource windows a CSV through the CSV IDSource path
// on a generator that has already learned it: each op is one check
// pass, in which every window is a memo hit. It reports ns per window;
// allocs/op is the whole pass's.
//
//   - repeated: a 262,144-row integrator CSV (the ingest workload's
//     input, scaled down), in which all but a few hundred windows
//     repeat a transition seen earlier in the pass.
//   - fresh: a 65,536-row counting CSV, in which every window, and so
//     every transition, occurs once: no window of a pass repeats a
//     transition the pass has seen.
func BenchmarkSequenceSource(b *testing.B) {
	b.Run("repeated", func(b *testing.B) {
		cfg := integrator.DefaultConfig()
		cfg.Observations = 1 << 18
		tr, err := cfg.Run()
		if err != nil {
			b.Fatal(err)
		}
		benchCheckPass(b, tr)
	})
	b.Run("fresh", func(b *testing.B) {
		tr := trace.New(trace.MustSchema(trace.VarDef{Name: "x", Type: expr.Int}))
		for i := 0; i < 1<<16; i++ {
			tr.MustAppend(trace.Observation{expr.IntVal(int64(i))})
		}
		benchCheckPass(b, tr)
	})
}

// benchCheckPass learns tr's CSV on a new generator, then times check
// passes over it.
func benchCheckPass(b *testing.B, tr *trace.Trace) {
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, tr); err != nil {
		b.Fatal(err)
	}
	csv := buf.Bytes()
	g, err := NewGenerator(tr.Schema(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	pass := func() int {
		src, err := trace.NewCSVSource(trace.NewBytes(csv))
		if err != nil {
			b.Fatal(err)
		}
		windows := 0
		if err := g.SequenceSource(src, func(r Run) error {
			windows += r.Count
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		return windows
	}
	windows := pass() // learn: every unique window is synthesised here
	b.SetBytes(int64(len(csv)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(windows), "ns/window")
}
