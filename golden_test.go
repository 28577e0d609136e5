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
// It also pins the ISSUE's mode-equivalence criterion on exactly these
// example traces: the incremental path (live solver extension), the
// scratch-rebuild path and the portfolio path must all produce the
// identical automaton — same states, transitions, and start state.
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

			// Mode equivalence on the predicate sequence of this trace.
			modes := []struct {
				name string
				opts learn.Options
			}{
				{"incremental", learn.Options{Segmented: true}},
				{"scratch", learn.Options{Segmented: true, ScratchRefinement: true}},
				{"portfolio", learn.Options{Segmented: true, Portfolio: 4, Workers: 4}},
			}
			ref := model.Automaton.String()
			for _, mode := range modes {
				res, err := learn.GenerateModelSeqs(symbolSeqs(model.P), mode.opts)
				if err != nil {
					t.Fatalf("%s relearn: %v", mode.name, err)
				}
				if res.Automaton.String() != ref {
					t.Errorf("%s path diverged from the pipeline's automaton:\n%s\nwant:\n%s",
						mode.name, res.Automaton, ref)
				}
			}
		})
	}
}
