package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/learn"
	"repro/internal/trace"
)

// FuzzReadModel feeds arbitrary bytes to ReadModel, the loader behind
// monitor -model. Malformed input must come back as a model error,
// never a panic or a runaway allocation; an accepted model, once
// re-saved by WriteModel, must read back and re-save to identical
// bytes.
func FuzzReadModel(f *testing.F) {
	for _, m := range exampleModels(f) {
		f.Add(m)
	}
	for _, src := range badCountModels {
		f.Add([]byte(src))
	}
	f.Add([]byte(badCountHead + "alphabet 0\ntransitions 0\nseeds 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip()
		}
		m, err := ReadModel(bytes.NewReader(data))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "model: ") {
				t.Fatalf("error %q lacks the model: prefix", err)
			}
			return
		}
		first := saveModel(t, m)
		again, err := ReadModel(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-saved model does not load: %v\n%s", err, first)
		}
		if second := saveModel(t, again); !bytes.Equal(first, second) {
			t.Fatalf("re-save is not a fixed point:\nfirst:\n%s\nsecond:\n%s", first, second)
		}
	})
}

// exampleModels learns every trace under examples/traces and returns
// the saved models.
func exampleModels(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, tr := range exampleTraces(tb) {
		p, err := NewPipeline(tr.Schema(), Options{Learn: learn.Options{Segmented: true}})
		if err != nil {
			tb.Fatal(err)
		}
		m, err := p.Learn(tr)
		if err != nil {
			tb.Fatalf("learning %v: %v", tr.Schema().Names(), err)
		}
		out = append(out, saveModel(tb, m))
	}
	return out
}

// exampleTraces reads every trace under examples/traces.
func exampleTraces(tb testing.TB) []*trace.Trace {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "traces", "*"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no example traces (%v)", err)
	}
	var out []*trace.Trace
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			tb.Fatal(err)
		}
		var tr *trace.Trace
		switch filepath.Ext(path) {
		case ".csv":
			tr, err = trace.ReadCSV(f)
		case ".vcd":
			tr, err = trace.ReadVCD(f, nil)
		default:
			tr, err = trace.ReadEvents(f)
		}
		f.Close()
		if err != nil {
			tb.Fatalf("reading %s: %v", path, err)
		}
		out = append(out, tr)
	}
	return out
}

func saveModel(tb testing.TB, m *Model) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteModel(&buf, m); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}
