// Active-probing evaluation: for each simulated system, learn a model
// from a deliberately truncated trace, run the counterexample-guided
// refinement loop of internal/active against the live system, and
// check the stabilized model against the passively learned full-trace
// one. RunActive backs `repro -exp active` and the committed
// BENCH_active.json.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/active"
	"repro/internal/core"
	"repro/internal/learn"
	"repro/internal/systems"
	"repro/internal/trace"
)

// ActiveRow is one system's refinement outcome.
type ActiveRow struct {
	// System is the registry name (systems.Open).
	System string `json:"system"`
	// SeedObs is the truncated seed trace length; FullObs the
	// canonical benchmark trace length the probes grow toward.
	SeedObs int `json:"seed_obs"`
	FullObs int `json:"full_obs"`
	// Rounds is rounds-to-stabilize; Divergences how many of them
	// found behaviour the hypothesis could not explain.
	Rounds      int  `json:"rounds"`
	Divergences int  `json:"divergences"`
	Stabilized  bool `json:"stabilized"`
	// States is the stabilized model's state count, and Identical
	// whether its automaton is byte-identical to the passively
	// learned full-trace model — the paper-level claim the active
	// loop makes.
	States    int  `json:"states"`
	Identical bool `json:"identical_to_passive"`
	// WallMS is the whole refinement's wall-clock time.
	WallMS float64 `json:"wall_ms"`
}

// activeTruncations picks each system's deliberately truncated seed
// length: enough to learn a plausible hypothesis, short of at least
// one behaviour (a missing turn, a missing attach-cycle variant). The
// acceptance test in internal/active pins the same values.
var activeTruncations = map[string]int{
	"counter": 100, // ascent only; both turns unseen
	"fifo":    6,   // ascent and top turn; bottom turn unseen
	"serial":  300,
	"usbslot": 12, // first attach cycle and a partial second
}

// activeCoreOptions maps the package-level evaluation knobs onto the
// pipeline options the refinement loop takes.
func activeCoreOptions() core.Options {
	return core.Options{
		Learn:     learn.Options{Portfolio: Portfolio, Workers: Workers},
		Telemetry: Telemetry,
		Context:   Context,
	}
}

// RunActive runs the refinement loop on every registered system and
// reports rounds-to-stabilize and the passive-model comparison.
func RunActive() ([]ActiveRow, error) {
	var rows []ActiveRow
	for _, name := range systems.Names() {
		sys, err := systems.Open(name)
		if err != nil {
			return nil, err
		}
		n := systems.CanonicalObservations(name)
		full, err := systems.DriveSchedule(sys, 0, n)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		pl, err := core.NewPipeline(full.Schema(), activeCoreOptions())
		if err != nil {
			return nil, err
		}
		passive, err := pl.LearnSource(trace.NewTraceSource(full))
		if err != nil {
			return nil, fmt.Errorf("%s: passive learn: %w", name, err)
		}
		seed := full.Slice(0, activeTruncations[name])
		t0 := time.Now()
		res, err := active.Refine(sys, seed, activeCoreOptions(), active.Options{ProbeCap: n})
		if err != nil {
			return nil, fmt.Errorf("%s: refine: %w", name, err)
		}
		row := ActiveRow{
			System:     name,
			SeedObs:    seed.Len(),
			FullObs:    n,
			Rounds:     len(res.Rounds),
			Stabilized: res.Stabilized,
			States:     res.Model.States,
			Identical:  res.Model.Automaton.String() == passive.Automaton.String(),
			WallMS:     float64(time.Since(t0).Microseconds()) / 1e3,
		}
		for _, r := range res.Rounds {
			if !r.Verdict.Conforms {
				row.Divergences++
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteActiveBench writes the rows as the BENCH_active.json document.
func WriteActiveBench(w io.Writer, rows []ActiveRow) error {
	doc := struct {
		Benchmark   string      `json:"benchmark"`
		Description string      `json:"description"`
		GOOS        string      `json:"goos"`
		GOARCH      string      `json:"goarch"`
		Results     []ActiveRow `json:"results"`
	}{
		Benchmark:   "active",
		Description: "Active conformance probing: rounds to stabilize from a truncated seed trace, and whether the stabilized model is byte-identical to the passive full-trace model (repro -exp active -active-out BENCH_active.json)",
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Results:     rows,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
