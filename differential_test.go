package repro_test

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/active"
	"repro/internal/core"
	"repro/internal/systems"
)

// diffInput is one workload fed through every learning mode by the
// differential harness: an example trace from disk or a fresh
// schedule-driven workload from a registered system.
type diffInput struct {
	name   string
	system string // registered system name, "" for file-backed traces
	tr     *repro.Trace
}

// diffInputs collects every trace under examples/traces plus the
// canonical workload of every registered simulated system, so the
// harness covers both the decoder-backed and the generator-backed
// corpus.
func diffInputs(t *testing.T) []diffInput {
	t.Helper()
	var inputs []diffInput

	paths, err := filepath.Glob(filepath.Join("examples", "traces", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no traces under examples/traces")
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		inputs = append(inputs, diffInput{name: "example/" + name, tr: readExampleTrace(t, path)})
	}

	for _, name := range systems.Names() {
		sys, err := systems.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := systems.DriveSchedule(sys, 0, systems.CanonicalObservations(name))
		if err != nil {
			t.Fatalf("driving %s: %v", name, err)
		}
		inputs = append(inputs, diffInput{name: "system/" + name, system: name, tr: tr})
	}
	return inputs
}

// TestDifferentialModes is the cross-mode differential harness: every
// input goes through the in-memory path and the streaming path, and
// both must produce byte-identical automata.
func TestDifferentialModes(t *testing.T) {
	for _, in := range diffInputs(t) {
		in := in
		t.Run(in.name, func(t *testing.T) {
			ref, err := repro.Learn(in.tr, repro.LearnOptions{})
			if err != nil {
				t.Fatalf("batch learn: %v", err)
			}
			want := ref.Automaton.String()

			m, err := repro.LearnSource(repro.NewTraceSource(in.tr), repro.LearnOptions{})
			if err != nil {
				t.Fatalf("stream learn: %v", err)
			}
			if got := m.Automaton.String(); got != want {
				t.Errorf("stream automaton diverged from batch:\nbatch:\n%s\nstream:\n%s", want, got)
			}
			if m.States != ref.States {
				t.Errorf("stream states = %d, batch = %d", m.States, ref.States)
			}
		})
	}
}

// TestDifferentialReloadFaithful: a model must abstract its own
// training workload identically before and after a save/load round
// trip. Seeds alone do not guarantee this — synthesis with the final
// seed pool can pick a later-seeded expression for an early window —
// so the model file carries the generator's window memo (its genstate
// tail), and this test is the regression gate: before that section
// existed, the reloaded serial model rejected its own training trace
// at step 8.
func TestDifferentialReloadFaithful(t *testing.T) {
	for _, in := range diffInputs(t) {
		in := in
		t.Run(in.name, func(t *testing.T) {
			m, err := repro.Learn(in.tr, repro.LearnOptions{})
			if err != nil {
				t.Fatal(err)
			}
			v, err := active.Conformance(m, in.tr)
			if err != nil {
				t.Fatal(err)
			}
			if !v.Conforms {
				t.Fatalf("in-process model rejects its own training trace: %s", v)
			}

			var buf bytes.Buffer
			if err := repro.SaveModel(&buf, m); err != nil {
				t.Fatal(err)
			}
			loaded, err := repro.LoadModel(&buf)
			if err != nil {
				t.Fatal(err)
			}
			v, err = active.Conformance(loaded, in.tr)
			if err != nil {
				t.Fatal(err)
			}
			if !v.Conforms {
				t.Errorf("reloaded model rejects its own training trace: %s", v)
			}
		})
	}
}

// TestDifferentialProbeFixpoint closes the harness loop through the
// active layer: a model learned from a system's complete canonical
// trace is already at its fixpoint, so one probe round must conform,
// trigger no refinement, and find no distinguishing counterexample.
func TestDifferentialProbeFixpoint(t *testing.T) {
	for _, in := range diffInputs(t) {
		if in.system == "" {
			continue
		}
		in := in
		t.Run(in.system, func(t *testing.T) {
			sys, err := systems.Open(in.system)
			if err != nil {
				t.Fatal(err)
			}
			n := in.tr.Len()
			res, err := active.Refine(sys, in.tr, core.Options{}, active.Options{
				ProbeStart: n,
				ProbeCap:   n,
				MaxRounds:  2,
			})
			if err != nil {
				t.Fatalf("refine: %v", err)
			}
			if !res.Stabilized {
				t.Fatalf("complete model did not stabilize in one probe round (%d rounds)", len(res.Rounds))
			}
			if len(res.Rounds) != 1 {
				t.Fatalf("got %d probe rounds, want exactly 1", len(res.Rounds))
			}
			r := res.Rounds[0]
			if !r.Verdict.Conforms {
				t.Errorf("probe verdict: %s, want conforms", r.Verdict)
			}
			if r.Relearned {
				t.Error("conforming probe changed the model")
			}
			if r.Distinction != nil {
				t.Errorf("found a distinguishing word %v on a fixpoint model", r.Distinction.Word)
			}

			ref, err := repro.Learn(in.tr, repro.LearnOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := res.Model.Automaton.String(), ref.Automaton.String(); got != want {
				t.Errorf("probe-round model diverged from the passive model:\npassive:\n%s\nactive:\n%s", want, got)
			}
		})
	}
}
