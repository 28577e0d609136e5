package experiments

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/learn"
	"repro/internal/systems/integrator"
	"repro/internal/trace"
)

// Integrator predicates the benchmark trace (GenIntegrator) abstracts
// to: the free integration step plus four window-local renderings of
// the ±5 clamp.
const (
	integrate   = "op' = ip + op"
	upperAtFour = "op' = op + ite(op = 4, ip, 0)"
	upperNonPos = "op' = op + ite(ip <= 0, ip, 0)"
	lowerAtFour = "op' = op + ite(op = -4, ip, 0)"
	lowerNonPos = "op' = op + ite(ip <= 0, 0, ip)"
)

// TestIntegratorStateGap pins why the Integrator learns 4 states where
// the paper's Fig 4 has 3. The search is minimal for the alphabet it
// is given; the alphabet is the cause. Synthesis picks the smallest
// expression that fits each window, so one clamp gets two renderings
// that agree with the integrator on every window they label but not on
// the whole clamp range. Relabelling each clamp's two renderings as one
// symbol drops the model to 2 states.
func TestIntegratorStateGap(t *testing.T) {
	c, err := CaseByName("Integrator")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.Generate()
	if err != nil {
		t.Fatal(err)
	}
	m, err := LearnCase(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.States != 4 {
		t.Fatalf("learned %d states, want 4", m.States)
	}
	clamps := []string{upperAtFour, upperNonPos, lowerAtFour, lowerNonPos}
	var alphabet []string
	for key := range m.Alphabet {
		alphabet = append(alphabet, key)
	}
	if len(alphabet) != 5 {
		t.Fatalf("alphabet %q, want five predicates", alphabet)
	}
	for _, key := range append(clamps, integrate) {
		if m.Alphabet[key] == nil {
			t.Fatalf("alphabet %q lacks %q", alphabet, key)
		}
	}

	// Each clamp form agrees with integrator.Step on every step of
	// every window it labels ...
	w := tr.Len() + 1 - len(m.P)
	for i, key := range m.P {
		if key == integrate {
			continue
		}
		for s := i; s < i+w-1; s++ {
			ip, op := tr.At(s)[0].I, tr.At(s)[1].I
			if !agreesWithStep(t, m.Alphabet[key].Expr, ip, op) {
				t.Fatalf("%q labels window %d but disagrees with Step at ip=%d op=%d", key, i, ip, op)
			}
		}
	}
	// ... but not on the whole clamp range: op + ite(op = 4, ip, 0)
	// keeps op at 5 when ip = -1, where the integrator steps to 4.
	if agreesWithStep(t, m.Alphabet[upperAtFour].Expr, -1, 5) {
		t.Errorf("%q agrees with Step at ip=-1 op=5", upperAtFour)
	}
	for _, key := range clamps {
		everywhere := true
		for ip := int64(-1); ip <= 1; ip++ {
			for op := int64(-5); op <= 5; op++ {
				everywhere = everywhere && agreesWithStep(t, m.Alphabet[key].Expr, ip, op)
			}
		}
		if everywhere {
			t.Errorf("%q agrees with Step on the whole clamp range", key)
		}
	}

	// N moves with the vocabulary: the same search over P learns 4
	// states, and 2 once each clamp is one symbol.
	relabel := map[string]string{
		upperAtFour: "upper", upperNonPos: "upper",
		lowerAtFour: "lower", lowerNonPos: "lower",
	}
	same, merged := learn.NewSeq(), learn.NewSeq()
	for _, key := range m.P {
		same.Append(key, 1)
		if r, ok := relabel[key]; ok {
			key = r
		}
		merged.Append(key, 1)
	}
	for _, tc := range []struct {
		name string
		seq  *learn.Seq
		want int
	}{{"P", same, 4}, {"relabelled P", merged, 2}} {
		res, err := learn.GenerateModelSeqs([]*learn.Seq{tc.seq}, learn.Options{Segmented: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Stats.FinalStates != tc.want {
			t.Errorf("%s: learned %d states, want %d\n%s", tc.name, res.Stats.FinalStates, tc.want, res.Automaton)
		}
	}
}

// agreesWithStep reports whether predicate p holds on the step the
// integrator takes from output op under input ip.
func agreesWithStep(t *testing.T, p expr.Expr, ip, op int64) bool {
	t.Helper()
	g, err := integrator.New(5)
	if err != nil {
		t.Fatal(err)
	}
	for g.Output() != op {
		dir := int64(1)
		if g.Output() > op {
			dir = -1
		}
		if err := g.Step(dir); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Step(ip); err != nil {
		t.Fatal(err)
	}
	step := trace.New(integrator.Schema())
	step.MustAppend(trace.Observation{expr.IntVal(ip), expr.IntVal(op)})
	step.MustAppend(trace.Observation{expr.IntVal(0), expr.IntVal(g.Output())})
	ok, err := step.HoldsAt(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}
