package trace_test

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/systems/rtlinux"
	"repro/internal/trace"
)

// BenchmarkFtraceSource decodes an rtlinux scheduler log of the size
// the repository benchmark's ingest workload learns from (4,000 events
// of the monitored task, about 338k lines), keeping that task's events.
func BenchmarkFtraceSource(b *testing.B) {
	cfg := rtlinux.DefaultConfig()
	cfg.Events = 4000
	sim, err := rtlinux.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		b.Fatal(err)
	}
	log := []byte(sim.FtraceLog())
	lines := bytes.Count(log, []byte("\n"))
	b.SetBytes(int64(len(log)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := trace.NewFtraceSource(trace.NewBytes(log), sim.MonitoredTask(), nil)
		kept := 0
		for {
			_, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			kept++
		}
		if kept < cfg.Events {
			b.Fatalf("kept %d events, want at least %d", kept, cfg.Events)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(lines), "ns/line")
}
