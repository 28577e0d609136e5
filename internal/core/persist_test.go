package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/automaton"
	"repro/internal/expr"
	"repro/internal/trace"
)

func counterTrace(t *testing.T, n int) *trace.Trace {
	t.Helper()
	schema := trace.MustSchema(trace.VarDef{Name: "x", Type: expr.Int})
	tr := trace.New(schema)
	x, dir := int64(1), int64(1)
	for i := 0; i < n; i++ {
		tr.MustAppend(trace.Observation{expr.IntVal(x)})
		if x >= 5 {
			dir = -1
		} else if x <= 1 {
			dir = 1
		}
		x += dir
	}
	return tr
}

func TestModelRoundTrip(t *testing.T) {
	tr := counterTrace(t, 40)
	p := testPipeline(t, tr.Schema())
	m, err := p.Learn(tr)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := WriteModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadModel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadModel: %v\nserialised:\n%s", err, buf.String())
	}

	if !automaton.Equivalent(m.Automaton, loaded.Automaton) {
		t.Errorf("automaton changed:\noriginal:\n%s\nloaded:\n%s", m.Automaton, loaded.Automaton)
	}
	if loaded.States != m.States {
		t.Errorf("states %d, want %d", loaded.States, m.States)
	}
	if len(loaded.Alphabet) != len(m.Alphabet) {
		t.Errorf("alphabet %d, want %d", len(loaded.Alphabet), len(m.Alphabet))
	}

	// The loaded model must monitor identically: same verdicts on a
	// conforming and a violating trace.
	conforming := counterTrace(t, 25)
	v1, err := m.Check(conforming)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := loaded.Check(conforming)
	if err != nil {
		t.Fatal(err)
	}
	if (v1 == nil) != (v2 == nil) {
		t.Errorf("verdicts differ on conforming trace: %v vs %v", v1, v2)
	}
	// A trace that jumps by 2 violates both.
	bad := trace.New(tr.Schema())
	for _, x := range []int64{1, 2, 3, 5, 3, 2} {
		bad.MustAppend(trace.Observation{expr.IntVal(x)})
	}
	v1, _ = m.Check(bad)
	v2, _ = loaded.Check(bad)
	if v1 == nil || v2 == nil {
		t.Fatalf("violation missed: original %v, loaded %v", v1, v2)
	}
	if v1.Position != v2.Position || v1.Predicate != v2.Predicate {
		t.Errorf("violations differ: %+v vs %+v", v1, v2)
	}
}

func TestModelRoundTripEventSchema(t *testing.T) {
	p := testPipeline(t, trace.EventSchema())
	var evs []string
	for i := 0; i < 12; i++ {
		evs = append(evs, "a", "b", "c")
	}
	m, err := p.Learn(trace.FromEvents(evs))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !automaton.Equivalent(m.Automaton, loaded.Automaton) {
		t.Error("automaton changed")
	}
	v, err := loaded.Check(trace.FromEvents([]string{"a", "b", "c", "a"}))
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Errorf("conforming trace flagged after reload: %v", v)
	}
}

func TestReadModelErrors(t *testing.T) {
	bad := []string{
		"",
		"wrong magic\n",
		"t2m-model v1\nnoschema\n",
		"t2m-model v1\nschema x:float\n",
		"t2m-model v1\nschema x:int:bogus\n",
		"t2m-model v1\nschema x:int\nwindow z\n",
		"t2m-model v1\nschema x:int\nwindow 3\nstates 1\ninitial 5\n",
		"t2m-model v1\nschema x:int\nwindow 3\nstates 1\ninitial 0\nalphabet 1\nq0 x' = x\n",
		"t2m-model v1\nschema x:int\nwindow 3\nstates 1\ninitial 0\nalphabet 1\np0 x'' = = x\n",
		"t2m-model v1\nschema x:int\nwindow 3\nstates 1\ninitial 0\nalphabet 1\np0 x' = x\ntransitions 1\n0 p9 0\n",
		"t2m-model v1\nschema x:int\nwindow 3\nstates 1\ninitial 0\nalphabet 1\np0 x' = x\ntransitions 1\n0 p0 7\n",
		"t2m-model v1\nschema x:int\nwindow 3\nstates 1\ninitial 0\nalphabet 0\ntransitions 0\nseeds 1\nzz x\n",
	}
	for _, src := range bad {
		if _, err := ReadModel(strings.NewReader(src)); err == nil {
			t.Errorf("ReadModel accepted:\n%s", src)
		}
	}
}

// TestReadModelBadCounts: header counts come from outside input
// (monitor -model), so a negative or absurd count must come back as a
// model error — not a makeslice panic, an out-of-memory crash, or a
// silently defaulted window.
func TestReadModelBadCounts(t *testing.T) {
	for name, src := range badCountModels {
		_, err := ReadModel(strings.NewReader(src))
		if err == nil {
			t.Errorf("%s: ReadModel accepted:\n%s", name, src)
		} else if !strings.HasPrefix(err.Error(), "model: ") {
			t.Errorf("%s: error %q lacks the model: prefix", name, err)
		}
	}
	// The same skeleton with sane counts loads: the cases above fail on
	// their counts alone.
	ok := badCountHead + "alphabet 0\ntransitions 0\nseeds 0\n"
	if _, err := ReadModel(strings.NewReader(ok)); err != nil {
		t.Fatalf("ReadModel rejected the well-formed skeleton: %v", err)
	}
}

const badCountHead = "t2m-model v1\nschema x:int\nwindow 3\nstates 1\ninitial 0\n"

// badCountModels are model files whose only defect is a header count;
// FuzzReadModel seeds from them too.
var badCountModels = map[string]string{
	"negative alphabet":    badCountHead + "alphabet -1\n",
	"huge alphabet":        badCountHead + "alphabet 100000000000\n",
	"negative transitions": badCountHead + "alphabet 0\ntransitions -1\nseeds 0\n",
	"huge transitions":     badCountHead + "alphabet 0\ntransitions 100000000000\n",
	"negative seeds":       badCountHead + "alphabet 0\ntransitions 0\nseeds -1\n",
	"huge seeds":           badCountHead + "alphabet 0\ntransitions 0\nseeds 100000000000\n",
	"huge states":          "t2m-model v1\nschema x:int\nwindow 3\nstates 100000000000\ninitial 0\nalphabet 0\ntransitions 0\nseeds 0\n",
	"window 0":             "t2m-model v1\nschema x:int\nwindow 0\nstates 1\ninitial 0\nalphabet 0\ntransitions 0\nseeds 0\n",
	"window 1":             "t2m-model v1\nschema x:int\nwindow 1\nstates 1\ninitial 0\nalphabet 0\ntransitions 0\nseeds 0\n",
	"negative window":      "t2m-model v1\nschema x:int\nwindow -3\nstates 1\ninitial 0\nalphabet 0\ntransitions 0\nseeds 0\n",
}

func TestSeedsSurviveReload(t *testing.T) {
	tr := counterTrace(t, 40)
	p := testPipeline(t, tr.Schema())
	m, err := p.Learn(tr)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "x x + 1") {
		t.Errorf("serialised model missing the x+1 seed:\n%s", buf.String())
	}
	loaded, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	seeds := loaded.pipeline.gen.Seeds()
	if len(seeds["x"]) == 0 {
		t.Error("seeds not restored")
	}
}
