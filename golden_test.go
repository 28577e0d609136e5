package repro_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro"
	"repro/internal/learn"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// goldenSummary renders the facts the golden files pin: the state
// count and the sorted set of accepted l-grams (l = 2, the compliance
// length) — every length-2 predicate sequence the automaton realises.
func goldenSummary(m *repro.Model) string {
	var b strings.Builder
	fmt.Fprintf(&b, "states: %d\n", m.States)
	var grams []string
	for _, g := range m.Automaton.SymbolSequences(2) {
		grams = append(grams, strings.Join(g, "\t"))
	}
	sort.Strings(grams)
	b.WriteString("lgrams:\n")
	for _, g := range grams {
		b.WriteString(g + "\n")
	}
	return b.String()
}

func readExampleTrace(t *testing.T, path string) *trace.Trace {
	t.Helper()
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
	return tr
}

// symbolSeqs wraps one expanded symbol sequence as the input
// learn.GenerateModelSeqs takes.
func symbolSeqs(P []string) []*learn.Seq {
	seq := learn.NewSeq()
	for _, sym := range P {
		seq.Append(sym, 1)
	}
	return []*learn.Seq{seq}
}

// TestGoldenExamples learns a model for every trace under
// examples/traces and compares its state count and accepted l-grams
// against the checked-in golden files. Regenerate with
//
//	go test -run TestGoldenExamples -update .
//
// It also relearns each trace's predicate sequence directly with
// learn.GenerateModelSeqs, which must produce the pipeline's automaton
// — same states, transitions, and start state. (internal/learn's
// TestScratchMatchesExamples does the same for the scratch-rebuild
// reference path.)
func TestGoldenExamples(t *testing.T) {
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
			model, err := repro.Learn(tr, repro.LearnOptions{})
			if err != nil {
				t.Fatalf("learning %s: %v", path, err)
			}

			got := goldenSummary(model)
			goldenPath := filepath.Join("testdata", "golden", name+".golden")
			if *updateGolden {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("reading golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("golden mismatch for %s\ngot:\n%s\nwant:\n%s\n(re-run with -update if intended)", path, got, want)
			}

			res, err := learn.GenerateModelSeqs(symbolSeqs(model.P), learn.Options{Segmented: true})
			if err != nil {
				t.Fatalf("relearn: %v", err)
			}
			if got, want := res.Automaton.String(), model.Automaton.String(); got != want {
				t.Errorf("GenerateModelSeqs diverged from the pipeline's automaton:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}
