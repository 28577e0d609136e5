package repro_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/expr"
	"repro/internal/trace"
)

// updownTrace builds a small up-down counter trace: x climbs 0..4 and
// back, n observations. Two alternating predicates, so the run
// exercises window synthesis, memoisation, RLE and the solver.
func updownTrace(n int) *trace.Trace {
	schema := trace.MustSchema(trace.VarDef{Name: "x", Type: expr.Int})
	tr := trace.New(schema)
	x, dir := int64(0), int64(1)
	for i := 0; i < n; i++ {
		tr.MustAppend(trace.Observation{expr.IntVal(x)})
		if x == 4 {
			dir = -1
		} else if x == 0 {
			dir = 1
		}
		x += dir
	}
	return tr
}

// TestTelemetryEndToEnd drives a real learn with every telemetry
// consumer attached — NDJSON tracer, registry, live HTTP endpoint —
// then checks the trace parses, the endpoints serve, and the manifest
// round-trips through its schema check.
func TestTelemetryEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	tel := &repro.Telemetry{Tracer: repro.NewTracer(&buf), Registry: repro.NewRegistry()}
	srv, err := repro.ServeMetrics("127.0.0.1:0", tel.Registry)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	model, err := repro.Learn(updownTrace(200), repro.LearnOptions{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	if err := tel.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}

	// NDJSON trace: every line is JSON, spans balance, and the span
	// hierarchy's names all appear.
	starts, ends := map[float64]bool{}, 0
	names := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		switch ev["t"] {
		case "start":
			starts[ev["id"].(float64)] = true
			names[ev["name"].(string)] = true
		case "end":
			if !starts[ev["id"].(float64)] {
				t.Errorf("end for unknown span id %v", ev["id"])
			}
			ends++
		}
	}
	if len(starts) == 0 || ends != len(starts) {
		t.Errorf("spans: %d starts, %d ends", len(starts), ends)
	}
	for _, want := range []string{"run", "predicate", "model", "window", "solve"} {
		if !names[want] {
			t.Errorf("trace has no %q span (got %v)", want, names)
		}
	}

	// Live endpoints: all three routes serve.
	for path, want := range map[string]string{
		"/metrics":      "predicate_windows_total",
		"/metrics.json": `"counters"`,
		"/debug/pprof/": "profile",
	} {
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), want) {
			t.Errorf("GET %s: body missing %q", path, want)
		}
	}

	// Manifest: assemble as cmd/t2m does, round-trip through the
	// schema-checking reader.
	man := model.BuildManifest(tel)
	man.Tool = "test"
	man.CreatedAt = "2026-01-01T00:00:00Z"
	var mb bytes.Buffer
	if err := man.Write(&mb); err != nil {
		t.Fatal(err)
	}
	got, err := repro.ReadManifest(&mb)
	if err != nil {
		t.Fatal(err)
	}
	if got.Model == nil || got.Model.States != model.States {
		t.Errorf("manifest model = %+v, want %d states", got.Model, model.States)
	}
	if got.Counters["predicate_windows_total"] <= 0 {
		t.Errorf("manifest counters = %v, want predicate_windows_total > 0", got.Counters)
	}
	if got.Counters["solver_calls_total"] <= 0 {
		t.Errorf("manifest counters = %v, want solver_calls_total > 0", got.Counters)
	}
	h, ok := got.Histograms["solver_call_ns"]
	if !ok || h.Count <= 0 || h.P95 < h.P50 {
		t.Errorf("manifest solver_call_ns summary = %+v", h)
	}
	// Canonical extraction is timed apart from the solve:
	// once per Sat round, so at most once per solver call.
	if c, ok := got.Histograms["learn_canonical_ns"]; !ok || c.Count <= 0 || c.Count > h.Count {
		t.Errorf("manifest learn_canonical_ns summary = %+v (solver calls %d)", c, h.Count)
	}
	if got.Counters["learn_canonical_solves_total"] <= 0 {
		t.Errorf("manifest counters = %v, want learn_canonical_solves_total > 0", got.Counters)
	}
	if _, ok := got.Histograms["predicate_window_synth_ns"]; !ok {
		t.Errorf("manifest missing predicate_window_synth_ns histogram (got %v)", got.Histograms)
	}
}

// TestExampleManifestParses pins the checked-in example artifact: it
// must keep passing the schema check ReadManifest applies.
func TestExampleManifestParses(t *testing.T) {
	f, err := os.Open(filepath.Join("examples", "counter.manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	man, err := repro.ReadManifest(f)
	if err != nil {
		t.Fatal(err)
	}
	if man.Tool != "t2m" || man.Model == nil || man.Model.States == 0 {
		t.Errorf("example manifest: tool=%q model=%+v", man.Tool, man.Model)
	}
}

// TestTelemetryDeterminism pins the telemetry guarantee: attaching a
// tracer and registry never changes the learned model.
func TestTelemetryDeterminism(t *testing.T) {
	plain, err := repro.Learn(updownTrace(200), repro.LearnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tel := &repro.Telemetry{Tracer: repro.NewTracer(io.Discard), Registry: repro.NewRegistry()}
	traced, err := repro.Learn(updownTrace(200), repro.LearnOptions{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Automaton.String() != traced.Automaton.String() {
		t.Errorf("telemetry changed the model:\nplain:\n%s\ntraced:\n%s",
			plain.Automaton.String(), traced.Automaton.String())
	}
}
