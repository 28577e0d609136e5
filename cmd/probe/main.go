// Command probe runs the active conformance-probing loop against one
// of the simulated systems: learn a hypothesis from a deliberately
// truncated seed trace, then repeatedly drive the live system further
// than the hypothesis has seen, check conformance, fold diverging
// probes back through the learner, and stop when a full-budget probe
// conforms and the SAT engine finds no distinguishing word between the
// last two hypotheses (see internal/active).
//
// Usage:
//
//	probe -system counter|fifo|serial|usbslot [-seed N] [-truncate N]
//	      [-probe-cap N] [-depth D] [-rounds R] [-j N] [-portfolio N]
//	      [-save model.t2m] [-bench-out FILE] [-q]
//
// The default -truncate is a quarter of the system's canonical
// benchmark trace, so the first rounds normally surface divergences;
// -truncate 0 seeds from the full canonical trace (the fixpoint sanity
// check: one conforming round, no refinement).
//
// Exit status: 0 when the loop stabilized, 1 when the round budget ran
// out first, 2 on error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/active"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/learn"
	"repro/internal/pipeline"
	"repro/internal/runlog"
	"repro/internal/systems"
	"repro/internal/trace"
)

// usage is the synopsis printed by -h. TestUsageNamesEveryFlag asserts
// it names every registered flag.
const usage = `usage: probe -system counter|fifo|serial|usbslot [-seed N] [-truncate N]
             [-probe-cap N] [-depth D] [-rounds R] [-j N] [-portfolio N]
             [-save model.t2m] [-bench-out FILE]
             [-run-log DIR] [-q]

`

// options carries every flag of one probe invocation.
type options struct {
	system    string
	seed      int64
	truncate  int
	probeCap  int
	depth     int
	rounds    int
	workers   int
	portfolio int
	save      string
	benchOut  string
	runLog    string
	quiet     bool
}

// declareFlags registers all flags on fs; split out so the usage smoke
// test can enumerate them against the synopsis above.
func declareFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.system, "system", "", "system to probe: "+strings.Join(systems.Names(), ", ")+" (required)")
	fs.Int64Var(&o.seed, "seed", 0, "workload schedule seed (0 = the system's default)")
	fs.IntVar(&o.truncate, "truncate", -1, "seed-trace length in observations (-1 = a quarter of the canonical trace, 0 = the full canonical trace)")
	fs.IntVar(&o.probeCap, "probe-cap", 0, "probe length budget in observations (0 = the canonical trace length)")
	fs.IntVar(&o.depth, "depth", 0, "distinguishing-word search depth between successive hypotheses (0 = default)")
	fs.IntVar(&o.rounds, "rounds", 0, "probe round budget (0 = default)")
	fs.IntVar(&o.workers, "j", 0, "max concurrent solver-portfolio members, used only with -portfolio (0 = one per CPU; results identical)")
	fs.IntVar(&o.portfolio, "portfolio", 0, "race this many SAT solver configurations per solve (0/1 = serial; results identical)")
	fs.StringVar(&o.save, "save", "", "save the stabilized model to this file (t2m format)")
	fs.StringVar(&o.benchOut, "bench-out", "", "write the run as a BENCH_active.json document to this file")
	fs.StringVar(&o.runLog, "run-log", "", "append this run's record to the run archive at this directory (see cmd/runstats)")
	fs.BoolVar(&o.quiet, "q", false, "suppress per-round output")
	return o
}

func main() {
	o := declareFlags(flag.CommandLine)
	flag.Usage = func() {
		fmt.Fprint(os.Stderr, usage)
		flag.PrintDefaults()
	}
	flag.Parse()
	code, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(o *options) (int, error) {
	if o.system == "" {
		return 2, fmt.Errorf("-system is required (one of %s)", strings.Join(systems.Names(), ", "))
	}
	sys, err := systems.Open(o.system)
	if err != nil {
		return 2, err
	}
	n := systems.CanonicalObservations(o.system)
	if o.probeCap <= 0 {
		o.probeCap = n
	}
	switch {
	case o.truncate < 0:
		o.truncate = n / 4
	case o.truncate == 0:
		o.truncate = n
	}
	seed, err := systems.DriveSchedule(sys, o.seed, o.truncate)
	if err != nil {
		return 2, err
	}
	copts := core.Options{
		Learn: learn.Options{Portfolio: o.portfolio, Workers: o.workers},
	}
	// The refinement loop's counters land in the run record, so a probe
	// run's residue (rounds, divergences, probe volume) is queryable
	// from the archive.
	if o.runLog != "" {
		copts.Telemetry = &pipeline.Telemetry{Registry: pipeline.NewRegistry()}
	}
	fmt.Printf("probe: %s: seed %d observations, probe budget %d\n", o.system, seed.Len(), o.probeCap)
	start := time.Now()
	res, err := active.Refine(sys, seed, copts, active.Options{
		Depth:     o.depth,
		MaxRounds: o.rounds,
		ProbeCap:  o.probeCap,
		Seed:      o.seed,
	})
	if err != nil {
		return 2, err
	}
	if err := writeRunRecord(o, copts.Telemetry, seed.Len(), res, time.Since(start)); err != nil {
		return 2, err
	}
	if !o.quiet {
		printRounds(res.Rounds)
	}
	if o.save != "" {
		if err := pipeline.AtomicWriteFile(o.save, func(w io.Writer) error {
			return repro.SaveModel(w, res.Model)
		}); err != nil {
			return 2, err
		}
	}
	if o.benchOut != "" {
		if err := writeBench(o, sys, seed.Len(), res); err != nil {
			return 2, err
		}
	}
	if !res.Stabilized {
		fmt.Printf("did not stabilize within %d rounds (%d states, final probe %d observations)\n",
			len(res.Rounds), res.Model.States, res.FinalProbeLen)
		return 1, nil
	}
	fmt.Printf("stabilized after %d rounds: %d states, final probe %d observations\n",
		len(res.Rounds), res.Model.States, res.FinalProbeLen)
	return 0, nil
}

// writeRunRecord archives the refinement run's outcome and loop
// counters; a no-op without -run-log.
func writeRunRecord(o *options, tel *pipeline.Telemetry, seedObs int, res *active.Result, elapsed time.Duration) error {
	if o.runLog == "" {
		return nil
	}
	store, err := runlog.Open(o.runLog)
	if err != nil {
		return err
	}
	verdict := runlog.VerdictOK
	if !res.Stabilized {
		verdict = runlog.VerdictDivergence
	}
	divergences := 0
	for _, r := range res.Rounds {
		if !r.Verdict.Conforms {
			divergences++
		}
	}
	rec := &runlog.Record{
		Version:   runlog.RecordVersion,
		Tool:      "probe",
		CreatedAt: time.Now().UTC().Format(time.RFC3339Nano),
		Config: map[string]any{
			"system":    o.system,
			"seed":      o.seed,
			"truncate":  o.truncate,
			"probe_cap": o.probeCap,
			"depth":     o.depth,
			"rounds":    o.rounds,
			"workers":   o.workers,
			"portfolio": o.portfolio,
		},
		WallMS:  float64(elapsed.Microseconds()) / 1e3,
		Verdict: verdict,
		Model:   &pipeline.ModelManifest{States: res.Model.States},
		Metrics: map[string]float64{
			"rounds":          float64(len(res.Rounds)),
			"divergences":     float64(divergences),
			"seed_obs":        float64(seedObs),
			"final_probe_len": float64(res.FinalProbeLen),
		},
	}
	if tel != nil && tel.Registry != nil {
		rec.Counters = tel.Registry.CounterValues()
		rec.Histograms = tel.Registry.Summaries()
	}
	_, err = store.Put(rec)
	return err
}

// printRounds renders one line per probe round.
func printRounds(rounds []active.Round) {
	for _, r := range rounds {
		line := fmt.Sprintf("round %d: probe %d obs: %s", r.Round, r.ProbeLen, r.Verdict)
		if r.Relearned {
			line += fmt.Sprintf("; refined to %d states", r.States)
		}
		if r.Distinction != nil {
			line += fmt.Sprintf("; distinguishing word %v", r.Distinction.Word)
			if r.WitnessOutcome != "" {
				line += " (" + r.WitnessOutcome + " by the system)"
			}
		}
		fmt.Println(line)
	}
}

// writeBench records the run as a single-row BENCH_active.json
// document, including the comparison against the passively learned
// full-budget model.
func writeBench(o *options, sys systems.Scheduler, seedObs int, res *active.Result) error {
	full, err := systems.DriveSchedule(sys, o.seed, o.probeCap)
	if err != nil {
		return err
	}
	pl, err := core.NewPipeline(full.Schema(), core.Options{
		Learn: learn.Options{Portfolio: o.portfolio, Workers: o.workers},
	})
	if err != nil {
		return err
	}
	passive, err := pl.LearnSource(trace.NewTraceSource(full))
	if err != nil {
		return err
	}
	var wall float64
	divergences := 0
	for _, r := range res.Rounds {
		wall += float64(r.Wall.Microseconds()) / 1e3
		if !r.Verdict.Conforms {
			divergences++
		}
	}
	row := experiments.ActiveRow{
		System:      o.system,
		SeedObs:     seedObs,
		FullObs:     o.probeCap,
		Rounds:      len(res.Rounds),
		Divergences: divergences,
		Stabilized:  res.Stabilized,
		States:      res.Model.States,
		Identical:   res.Model.Automaton.String() == passive.Automaton.String(),
		WallMS:      wall,
	}
	return pipeline.AtomicWriteFile(o.benchOut, func(w io.Writer) error {
		return experiments.WriteActiveBench(w, []experiments.ActiveRow{row})
	})
}
