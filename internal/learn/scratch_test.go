package learn_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/experiments"
	"repro/internal/learn"
	"repro/internal/trace"
)

// symbolSeqs wraps one expanded symbol sequence as the input
// learn.GenerateModelSeqs takes.
func symbolSeqs(P []string) []*learn.Seq {
	seq := learn.NewSeq()
	for _, sym := range P {
		seq.Append(sym, 1)
	}
	return []*learn.Seq{seq}
}

// TestScratchMatchesExamples: on the predicate sequence of every trace
// under examples/traces, the scratch-rebuild reference path learns the
// pipeline's automaton — same states, transitions, and start state.
func TestScratchMatchesExamples(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "traces", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no traces under examples/traces")
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		t.Run(name, func(t *testing.T) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var tr *trace.Trace
			switch filepath.Ext(path) {
			case ".csv":
				tr, err = trace.ReadCSV(f)
			case ".vcd":
				tr, err = trace.ReadVCD(f, nil)
			default:
				tr, err = trace.ReadEvents(f)
			}
			if err != nil {
				t.Fatalf("reading %s: %v", path, err)
			}
			model, err := repro.Learn(tr, repro.LearnOptions{})
			if err != nil {
				t.Fatalf("learning %s: %v", path, err)
			}
			res, err := learn.GenerateModelSeqs(symbolSeqs(model.P),
				learn.WithScratchRefinement(learn.Options{Segmented: true}))
			if err != nil {
				t.Fatalf("scratch relearn: %v", err)
			}
			if got, want := res.Automaton.String(), model.Automaton.String(); got != want {
				t.Errorf("scratch path diverged from the pipeline's automaton:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// benchGenerateModel isolates SAT-based model construction (no
// predicate stage) on the serial-port predicate sequence, the
// refinement-heaviest benchmark case. Canonical model extraction makes
// both variants learn the identical automaton; only the work to get
// there differs.
func benchGenerateModel(b *testing.B, opts learn.Options) {
	b.Helper()
	c, err := experiments.CaseByName("Serial I/O Port")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := c.Generate()
	if err != nil {
		b.Fatal(err)
	}
	model, err := repro.Learn(tr, c.Options)
	if err != nil {
		b.Fatal(err)
	}
	opts.Segmented = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := learn.GenerateModelSeqs(symbolSeqs(model.P), opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Stats.FinalStates), "states")
		b.ReportMetric(float64(res.Stats.SATConflicts), "conflicts")
	}
}

func BenchmarkGenerateModelScratch(b *testing.B) {
	benchGenerateModel(b, learn.WithScratchRefinement(learn.Options{}))
}
func BenchmarkGenerateModelIncremental(b *testing.B) {
	benchGenerateModel(b, learn.Options{})
}
