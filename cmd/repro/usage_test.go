package main

import (
	"flag"
	"go/parser"
	"go/token"
	"strings"
	"testing"
	"unicode"
)

// TestUsageNamesEveryFlag pins the -h synopsis and the package doc to
// the registered flag set and the experiment table: a flag or
// experiment added without a mention in both fails here instead of
// silently drifting.
func TestUsageNamesEveryFlag(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	texts := map[string]string{"usage synopsis": usage, "package doc": f.Doc.Text()}

	var want []string
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	declareFlags(fs)
	fs.VisitAll(func(f *flag.Flag) { want = append(want, "-"+f.Name) })
	if len(want) == 0 {
		t.Fatal("declareFlags registered no flags")
	}
	want = append(want, "all")
	for name := range experimentRunners {
		want = append(want, name)
	}
	for name := range figureCase {
		want = append(want, name)
	}
	for _, e := range allExperiments {
		if experimentRunners[e] == nil {
			t.Errorf("-exp all runs unknown experiment %q", e)
		}
	}

	for where, text := range texts {
		words := map[string]bool{}
		for _, w := range strings.FieldsFunc(text, func(r rune) bool {
			return !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '-'
		}) {
			words[w] = true
		}
		for _, w := range want {
			if !words[w] {
				t.Errorf("%s does not name %s", where, w)
			}
		}
	}
}
