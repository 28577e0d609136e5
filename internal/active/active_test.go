package active_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/active"
	"repro/internal/core"
	"repro/internal/learn"
	"repro/internal/pipeline"
	"repro/internal/systems"
	"repro/internal/trace"
)

// learnPassive learns a model from a trace through a fresh pipeline —
// the reference the active loop must converge to.
func learnPassive(t *testing.T, tr *trace.Trace, copts core.Options) *core.Model {
	t.Helper()
	pl, err := core.NewPipeline(tr.Schema(), copts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := pl.LearnSource(trace.NewTraceSource(tr))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustOpen(t *testing.T, name string) systems.Scheduler {
	t.Helper()
	sys, err := systems.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// roundSummary renders a round's deterministic fields (everything but
// wall time) for cross-configuration comparison.
func roundSummary(rounds []active.Round) string {
	var b strings.Builder
	for _, r := range rounds {
		dist := "-"
		if r.Distinction != nil {
			dist = fmt.Sprintf("%v/%v", r.Distinction.Word, r.Distinction.ASurvives)
		}
		fmt.Fprintf(&b, "r%d len=%d verdict=%q relearned=%v states=%d dist=%s witness=%q\n",
			r.Round, r.ProbeLen, r.Verdict.String(), r.Relearned, r.States, dist, r.WitnessOutcome)
	}
	return b.String()
}

// TestRefineReachesPassiveFixpoint is the acceptance criterion: for
// each simulated system, starting from a model learned on a
// deliberately truncated trace, the active loop stabilizes within the
// round budget and the final model is byte-identical to the model
// learned passively from the full canonical trace — with the serial
// solver and with the portfolio solver on.
func TestRefineReachesPassiveFixpoint(t *testing.T) {
	cases := []struct {
		name     string
		truncate int // seed = canonical trace truncated to this many observations
	}{
		{"counter", 100}, // ascent only: the model has never seen either turn
		{"fifo", 6},      // one ascent and the top turn; the bottom turn is missing
		{"serial", 300},
		{"usbslot", 12}, // the first attach cycle and a partial second
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sys := mustOpen(t, tc.name)
			n := systems.CanonicalObservations(tc.name)
			full, err := systems.DriveSchedule(sys, 0, n)
			if err != nil {
				t.Fatal(err)
			}
			ref := learnPassive(t, full, core.Options{})
			seed := full.Slice(0, tc.truncate)

			configs := []struct {
				label     string
				portfolio int
			}{
				{"serial-solver", 0},
				{"portfolio", 2},
			}
			var baseline string
			for _, cfg := range configs {
				copts := core.Options{Learn: learn.Options{Portfolio: cfg.portfolio}}
				res, err := active.Refine(sys, seed, copts, active.Options{ProbeCap: n})
				if err != nil {
					t.Fatalf("%s: %v", cfg.label, err)
				}
				if !res.Stabilized {
					t.Fatalf("%s: did not stabilize in %d rounds:\n%s",
						cfg.label, len(res.Rounds), roundSummary(res.Rounds))
				}
				diverged := 0
				for _, r := range res.Rounds {
					if !r.Verdict.Conforms {
						diverged++
					}
				}
				if diverged == 0 {
					t.Errorf("%s: truncated seed produced no diverging round", cfg.label)
				}
				if got, want := res.Model.Automaton.String(), ref.Automaton.String(); got != want {
					t.Errorf("%s: stabilized model differs from passive full-trace model:\ngot:\n%s\nwant:\n%s\nrounds:\n%s",
						cfg.label, got, want, roundSummary(res.Rounds))
				}
				if res.FinalProbeLen != n {
					t.Errorf("%s: final probe length %d, want cap %d", cfg.label, res.FinalProbeLen, n)
				}
				// The last round is the certificate: conforming, no
				// refinement, no distinguishing word.
				last := res.Rounds[len(res.Rounds)-1]
				if !last.Verdict.Conforms || last.Relearned || last.Distinction != nil {
					t.Errorf("%s: last round is not a fixpoint certificate:\n%s", cfg.label, roundSummary(res.Rounds))
				}
				summary := roundSummary(res.Rounds)
				if baseline == "" {
					baseline = summary
				} else if summary != baseline {
					t.Errorf("%s: rounds differ from w1 baseline:\ngot:\n%s\nwant:\n%s", cfg.label, summary, baseline)
				}
			}
		})
	}
}

// TestRefineFixpointSanity: one probe round on a model learned from
// the complete canonical trace finds no counterexample and stabilizes
// immediately.
func TestRefineFixpointSanity(t *testing.T) {
	for _, name := range systems.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			sys := mustOpen(t, name)
			n := systems.CanonicalObservations(name)
			full, err := systems.DriveSchedule(sys, 0, n)
			if err != nil {
				t.Fatal(err)
			}
			res, err := active.Refine(sys, full, core.Options{}, active.Options{ProbeCap: n})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Stabilized || len(res.Rounds) != 1 {
				t.Fatalf("complete model: stabilized=%v in %d rounds, want 1:\n%s",
					res.Stabilized, len(res.Rounds), roundSummary(res.Rounds))
			}
			if r := res.Rounds[0]; !r.Verdict.Conforms || r.Relearned {
				t.Fatalf("complete model: round 1 = %s", roundSummary(res.Rounds))
			}
		})
	}
}

// TestRefineTelemetry checks the probe-round instrumentation: round
// and divergence counters, the stabilization counter, and the
// distinguishing-length histogram.
func TestRefineTelemetry(t *testing.T) {
	sys := mustOpen(t, "fifo")
	n := systems.CanonicalObservations("fifo")
	full, err := systems.DriveSchedule(sys, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	tel := &pipeline.Telemetry{Registry: pipeline.NewRegistry()}
	res, err := active.Refine(sys, full.Slice(0, 6), core.Options{Telemetry: tel}, active.Options{ProbeCap: n})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stabilized {
		t.Fatalf("did not stabilize:\n%s", roundSummary(res.Rounds))
	}
	vals := tel.Registry.CounterValues()
	if got := vals["active_rounds_total"]; got != int64(len(res.Rounds)) {
		t.Errorf("active_rounds_total = %d, want %d", got, len(res.Rounds))
	}
	if vals["active_divergences_total"] < 1 {
		t.Errorf("active_divergences_total = %d, want >= 1", vals["active_divergences_total"])
	}
	if vals["active_stabilized_total"] != 1 {
		t.Errorf("active_stabilized_total = %d, want 1", vals["active_stabilized_total"])
	}
	if vals["active_probe_observations_total"] < int64(n) {
		t.Errorf("active_probe_observations_total = %d, want >= %d", vals["active_probe_observations_total"], n)
	}
}

// TestRefineValidation covers the argument checks.
func TestRefineValidation(t *testing.T) {
	sys := mustOpen(t, "counter")
	n := systems.CanonicalObservations("counter")
	full, err := systems.DriveSchedule(sys, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := active.Refine(sys, nil, core.Options{}, active.Options{}); err == nil {
		t.Error("nil seed accepted")
	}
	if _, err := active.Refine(sys, full.Slice(0, 1), core.Options{}, active.Options{}); err == nil {
		t.Error("1-observation seed accepted")
	}
	other := mustOpen(t, "serial")
	otherTrace, err := systems.DriveSchedule(other, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := active.Refine(sys, otherTrace, core.Options{}, active.Options{}); err == nil {
		t.Error("schema mismatch accepted")
	}
}

// TestConformance covers the verdict path directly: a complete model
// explains its own trace; a truncated model names the diverging step,
// predicate and witness context.
func TestConformance(t *testing.T) {
	sys := mustOpen(t, "fifo")
	n := systems.CanonicalObservations("fifo")
	full, err := systems.DriveSchedule(sys, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	m := learnPassive(t, full, core.Options{})
	v, err := active.Conformance(m, full)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Conforms || v.String() != "conforms" {
		t.Fatalf("complete model verdict = %+v", v)
	}

	// A model that has only seen the ascent must diverge on the full
	// trace, at the top turn or later.
	mt := learnPassive(t, full.Slice(0, 4), core.Options{})
	v, err = active.Conformance(mt, full)
	if err != nil {
		t.Fatal(err)
	}
	if v.Conforms {
		t.Fatal("truncated model conforms to full trace")
	}
	if v.Step <= 0 || v.Predicate == "" || len(v.Witness) == 0 {
		t.Fatalf("divergence verdict incomplete: %+v", v)
	}
	if s := v.String(); !strings.Contains(s, "diverges at step") {
		t.Fatalf("String() = %q", s)
	}
	if last := v.Witness[len(v.Witness)-1]; last != v.Predicate {
		t.Fatalf("witness %v does not end in the diverging predicate %q", v.Witness, v.Predicate)
	}
}
