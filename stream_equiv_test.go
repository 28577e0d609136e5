package repro_test

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// openExampleSource opens one trace under examples/traces as a
// streaming source. The returned closer releases the file.
func openExampleSource(t *testing.T, path string) (repro.Source, func()) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var src repro.Source
	switch filepath.Ext(path) {
	case ".csv":
		src, err = repro.NewCSVSource(f)
	case ".vcd":
		src, err = repro.NewVCDSource(f, nil)
	default:
		src = repro.NewEventsSource(f)
	}
	if err != nil {
		f.Close()
		t.Fatalf("opening %s: %v", path, err)
	}
	return src, func() { f.Close() }
}

// TestStreamingMatchesBatchGolden is the ISSUE's equivalence
// criterion: for every example trace, learning from the streaming
// source must produce an automaton byte-identical to the batch path's
// (same String() rendering: states, transitions, start state). The
// batch side reuses the golden corpus so a divergence pinpoints which
// path moved.
func TestStreamingMatchesBatchGolden(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("examples", "traces", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no traces under examples/traces")
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		t.Run(name, func(t *testing.T) {
			tr := readExampleTrace(t, path)
			batch, err := repro.Learn(tr, repro.LearnOptions{})
			if err != nil {
				t.Fatalf("batch learn: %v", err)
			}

			src, closeSrc := openExampleSource(t, path)
			defer closeSrc()
			stream, err := repro.LearnSource(src, repro.LearnOptions{})
			if err != nil {
				t.Fatalf("streaming learn: %v", err)
			}

			if bs, ss := batch.Automaton.String(), stream.Automaton.String(); bs != ss {
				t.Errorf("streaming automaton diverged from batch:\nbatch:\n%s\nstream:\n%s", bs, ss)
			}
			if batch.States != stream.States {
				t.Errorf("states: batch %d, stream %d", batch.States, stream.States)
			}
			if stream.P != nil {
				t.Errorf("streaming model materialised P (%d symbols); it must stay nil", len(stream.P))
			}
		})
	}
}

// TestStreamingBoundedMemory learns a one-million-step counter trace
// through the streaming path and asserts the peak live heap stays
// under a ceiling an order of magnitude below what the batch path
// needs for the same trace (~155 MB measured; see EXPERIMENTS.md).
// The trace bytes are generated up front (~1.9 MB, part of the live
// set) so the measurement covers decode + windowing + learning only.
func TestStreamingBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-step trace; skipped with -short")
	}
	const steps = 1_000_000
	const ceiling = 48 << 20 // bytes

	var buf bytes.Buffer
	if err := experiments.StreamCounterCSV(&buf, steps, 8); err != nil {
		t.Fatal(err)
	}

	// The sampler reads HeapAlloc, which counts garbage earlier tests
	// left behind (TestSampledTraceBoundedAtScale grows the heap past
	// 1.5 GB): collect it so the peak is this test's own.
	runtime.GC()
	hs := pipeline.StartHeapSampler(time.Millisecond)
	src, err := trace.NewCSVSource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	m, err := repro.LearnSource(src, repro.LearnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	peak := hs.Stop()

	if m.States == 0 {
		t.Fatal("no states learned")
	}
	var obs int64
	for _, st := range m.Stages {
		if st.Name == "predicate" {
			obs = st.Counter("observations")
		}
	}
	if obs != steps {
		t.Errorf("observations counter = %d, want %d", obs, steps)
	}
	if peak > ceiling {
		t.Errorf("peak live heap %d bytes (%.1f MB) exceeds the %d MB streaming ceiling",
			peak, float64(peak)/(1<<20), ceiling>>20)
	}
	t.Logf("peak live heap %.1f MB for %d observations (%d states)",
		float64(peak)/(1<<20), steps, m.States)
}
