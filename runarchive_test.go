// End-to-end checks for bounded telemetry at scale (ISSUE 9): the
// sampled trace of a long streaming run stays a small fraction of the
// unsampled one while its per-kind rollups stay byte-identical; span
// sampling never changes the learned model; and an interrupted run's
// closed trace is still valid NDJSON with its rollup epilogue — the
// kill-and-inspect property cmd/t2m's cleanup path relies on.
package repro_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/experiments"
	"repro/internal/trace"
)

// tickClock returns a deterministic µs clock for Tracer.SetClock: each
// read advances 3µs. Two runs that make the same telemetry calls in
// the same order therefore render identical timestamps and durations.
func tickClock() func() int64 {
	var n atomic.Int64
	return func() int64 { return n.Add(3) }
}

// incrementingCSV generates a steps-observation strictly increasing
// counter CSV: mod > steps means the counter never wraps, so every
// sliding window is distinct and the predicate stage emits one
// "window" span per position — the worst case for trace volume, while
// seed synthesis keeps each window cheap and the learned model tiny.
func incrementingCSV(t testing.TB, steps int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := experiments.StreamCounterCSV(&buf, steps, steps+2); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// learnTracedStream learns the CSV stream with a tracer writing to
// path under the given sampling policy (nil = unsampled) and a
// deterministic clock, serially so the span sequence is reproducible.
func learnTracedStream(t testing.TB, data []byte, path string, policy repro.SamplePolicy) *repro.Model {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	tr := repro.NewTracer(w)
	tr.SetClock(tickClock())
	if policy != nil {
		tr.SetPolicy(policy)
	}
	src, err := trace.NewCSVSource(trace.NewBytes(data))
	if err != nil {
		t.Fatal(err)
	}
	model, err := repro.LearnSource(src, repro.LearnOptions{
		Telemetry: &repro.Telemetry{Tracer: tr, Registry: repro.NewRegistry()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return model
}

// scanTrace streams over a trace file without loading it, returning
// its size, the per-kind span start counts, and the verbatim epilogue
// ("sample" and "rollup") lines.
func scanTrace(t testing.TB, path string) (size int64, starts map[string]int, epilogue []string) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	size = fi.Size()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	starts = map[string]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		var ev struct {
			T    string `json:"t"`
			Name string `json:"name"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		switch ev.T {
		case "start":
			starts[ev.Name]++
		case "sample", "rollup":
			epilogue = append(epilogue, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return size, starts, epilogue
}

// TestSampledTraceBoundedAtScale is the 1M-step acceptance check: on a
// streaming run where every window is distinct, the sampled trace file
// must be ≤5% of the unsampled one, its rollup lines byte-identical to
// the unsampled run's (the aggregates lose nothing to sampling), and
// the learned model identical.
func TestSampledTraceBoundedAtScale(t *testing.T) {
	steps := 1_000_000
	if testing.Short() || raceEnabled {
		steps = 100_000
	}
	data := incrementingCSV(t, steps)
	dir := t.TempDir()
	fullPath := filepath.Join(dir, "full.trace")
	sampledPath := filepath.Join(dir, "sampled.trace")

	// Keep only the first model's text: its generator holds about
	// 0.5 GB at 1M steps, which must not stay live through the second
	// learn.
	full := learnTracedStream(t, data, fullPath, nil).Automaton.String()
	sampled := learnTracedStream(t, data, sampledPath, repro.DefaultSamplePolicy()).Automaton.String()

	if full != sampled {
		t.Errorf("sampling changed the model:\nfull:\n%s\nsampled:\n%s", full, sampled)
	}

	fullSize, fullStarts, fullEpi := scanTrace(t, fullPath)
	sampledSize, sampledStarts, sampledEpi := scanTrace(t, sampledPath)

	// The unsampled run really does emit one window span per position;
	// the sampled run keeps a bounded subset of them.
	wantWindows := steps - 2 // distinct sliding windows of the default width
	if fullStarts["window"] < wantWindows/2 {
		t.Fatalf("unsampled run emitted %d window spans, want ≥%d — workload no longer stresses span volume", fullStarts["window"], wantWindows/2)
	}
	if sampledStarts["window"] >= fullStarts["window"]/10 {
		t.Errorf("sampled run kept %d of %d window spans — sampling not engaging", sampledStarts["window"], fullStarts["window"])
	}
	if sampledSize > fullSize/20 {
		t.Errorf("sampled trace is %d bytes, unsampled %d: want ≤5%%", sampledSize, fullSize)
	}

	// Rollups must not degrade under sampling: identical bytes. The
	// sampled epilogue additionally carries the per-kind sample lines.
	var fullRollups, sampledRollups []string
	for _, l := range fullEpi {
		if strings.HasPrefix(l, `{"t":"rollup"`) {
			fullRollups = append(fullRollups, l)
		}
	}
	sampleLines := 0
	for _, l := range sampledEpi {
		if strings.HasPrefix(l, `{"t":"rollup"`) {
			sampledRollups = append(sampledRollups, l)
		} else {
			sampleLines++
		}
	}
	if len(fullRollups) == 0 {
		t.Fatal("unsampled trace has no rollup lines")
	}
	if strings.Join(fullRollups, "\n") != strings.Join(sampledRollups, "\n") {
		t.Errorf("rollup lines differ between sampled and unsampled runs:\nfull:\n%s\nsampled:\n%s",
			strings.Join(fullRollups, "\n"), strings.Join(sampledRollups, "\n"))
	}
	if sampleLines == 0 {
		t.Error("sampled trace has no sample epilogue lines")
	}
	var windowRollup struct {
		Count int64 `json:"count"`
	}
	for _, l := range sampledRollups {
		if strings.Contains(l, `"kind":"window"`) {
			if err := json.Unmarshal([]byte(l), &windowRollup); err != nil {
				t.Fatal(err)
			}
		}
	}
	if windowRollup.Count != int64(fullStarts["window"]) {
		t.Errorf("window rollup count %d, want %d (every span observed exactly once)", windowRollup.Count, fullStarts["window"])
	}
}

// TestTelemetrySamplingDifferential extends the differential harness
// with the sampled leg: telemetry off, unsampled and sampled tracing
// must all learn byte-identical models.
func TestTelemetrySamplingDifferential(t *testing.T) {
	learn := func(policy repro.SamplePolicy, enabled bool) string {
		opts := repro.LearnOptions{}
		if enabled {
			tr := repro.NewTracer(bufio.NewWriter(&bytes.Buffer{}))
			if policy != nil {
				tr.SetPolicy(policy)
			}
			opts.Telemetry = &repro.Telemetry{Tracer: tr, Registry: repro.NewRegistry()}
		}
		m, err := repro.Learn(updownTrace(400), opts)
		if err != nil {
			t.Fatal(err)
		}
		return m.Automaton.String()
	}
	off := learn(nil, false)
	full := learn(nil, true)
	sampled := learn(repro.DefaultSamplePolicy(), true)
	if off != full || full != sampled {
		t.Errorf("telemetry modes disagree:\noff:\n%s\nfull:\n%s\nsampled:\n%s", off, full, sampled)
	}
}

// cancelSource delivers the underlying stream faithfully and calls
// cancel once, just before observation limit+1.
type cancelSource struct {
	src    repro.Source
	limit  int
	seen   int
	cancel func()
}

func (c *cancelSource) Schema() *trace.Schema { return c.src.Schema() }

func (c *cancelSource) Next() (trace.Observation, error) {
	if c.seen == c.limit {
		c.cancel()
	}
	c.seen++
	return c.src.Next()
}

// TestTracerKillAndInspect pins the interrupted-run guarantee behind
// t2m's SIGTERM cleanup: when the learn dies mid-stream (context
// cancelled at an observation boundary), closing the tracer still
// yields a parseable NDJSON file whose epilogue carries the rollups of
// everything observed up to the kill.
func TestTracerKillAndInspect(t *testing.T) {
	data := incrementingCSV(t, 20_000)
	ctx, cancel := context.WithCancel(context.Background())
	var buf bytes.Buffer
	tr := repro.NewTracer(&buf)
	tr.SetPolicy(repro.DefaultSamplePolicy())

	src, err := trace.NewCSVSource(trace.NewBytes(data))
	if err != nil {
		t.Fatal(err)
	}
	// The "SIGTERM": cancels the run mid-stream.
	cut := &cancelSource{src: src, limit: 10_000, cancel: cancel}
	_, err = repro.LearnSource(cut, repro.LearnOptions{
		Context:   ctx,
		Telemetry: &repro.Telemetry{Tracer: tr, Registry: repro.NewRegistry()},
	})
	if err == nil {
		t.Fatal("cancelled learn succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("learn failed with %v, want context.Canceled", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// The committed bytes must be a complete, inspectable trace: every
	// line parses, every end matches a start, and the epilogue reports
	// rollups for the spans observed before the kill.
	starts := map[float64]bool{}
	rollups := map[string]int64{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		switch ev["t"] {
		case "start":
			starts[ev["id"].(float64)] = true
		case "end":
			if !starts[ev["id"].(float64)] {
				t.Errorf("end for unknown span id %v", ev["id"])
			}
		case "rollup":
			rollups[ev["kind"].(string)] = int64(ev["count"].(float64))
		}
	}
	if rollups["window"] < 1_000 {
		t.Errorf("window rollup count %d after kill, want ≥1000 (observations before the cut)", rollups["window"])
	}
}
