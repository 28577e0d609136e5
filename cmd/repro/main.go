// Command repro regenerates the paper's evaluation: the learned-model
// figures (Fig 1b, 2b, 3, 4, 5, 6), the runtime tables (Table I and
// Table II), the scalability plot (Fig 7) and the ablations DESIGN.md
// adds. Results are printed as text tables; figures can additionally
// be written as Graphviz DOT files.
//
// Usage:
//
//	repro [-exp NAME] [-dotdir DIR] [-full-timeout D] [-merge-timeout D]
//	      [-max-exp K] [-solve-out FILE] [-active-out FILE]
//	      [-metrics-addr ADDR] [-run-log DIR]
//
// NAME is all (the default: every experiment but ingest) or one of
// figures, fig1b, fig2, fig3, fig4, fig5, fig6, fig7, table1, table2,
// ablation-w, ablation-l, ablation-sym, synth-styles, coverage,
// invariants, properties, solve, active and ingest; repro -h says what
// each one runs. -metrics-addr serves /metrics while the evaluation
// runs, and -run-log appends its record to a run archive (see
// cmd/runstats).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/runlog"
)

// usage is the synopsis printed by -h. TestUsageNamesEveryFlag asserts
// it names every registered flag and every experiment.
const usage = `usage: repro [-exp NAME] [-dotdir DIR] [-full-timeout D] [-merge-timeout D]
             [-max-exp K] [-solve-out FILE] [-active-out FILE]
             [-metrics-addr ADDR] [-run-log DIR]

experiments (-exp NAME; all, the default, runs every one but ingest):
  figures       the six figures' models: fig1b fig3 fig5 fig2 fig4 fig6
  fig1b … fig6  one figure (fig1b, fig2, fig3, fig4, fig5 or fig6)
  table1        segmented vs non-segmented construction (-full-timeout)
  table2        state merge vs model learning (-merge-timeout)
  fig7          runtime vs trace length (-max-exp, -full-timeout)
  ablation-w    segmentation window w
  ablation-l    compliance length l
  ablation-sym  state-ordering symmetry breaking
  synth-styles  minimal vs trivial synthesized expressions
  coverage      USB Slot transition coverage
  invariants    candidate state invariants
  properties    safety properties of the learned models
  solve         solver throughput (-solve-out)
  active        active probing (-active-out)
  ingest        batch vs streaming ingestion

`

// options carries every flag of one repro invocation.
type options struct {
	exp, dotDir, solveOut, activeOut string
	fullTimeout, mergeTimeout        time.Duration
	maxExp                           int
	metricsAddr, runLog              string
}

// declareFlags registers all flags on fs; split out so the usage smoke
// test can enumerate them against the synopsis above.
func declareFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.exp, "exp", "all", "experiment to run: all, or one named in the synopsis above")
	fs.StringVar(&o.dotDir, "dotdir", "", "write learned automata as DOT files into this directory")
	fs.DurationVar(&o.fullTimeout, "full-timeout", 60*time.Second, "timeout for non-segmented runs (Table I, Fig 7)")
	fs.DurationVar(&o.mergeTimeout, "merge-timeout", 60*time.Second, "timeout for state-merge runs (Table II)")
	fs.IntVar(&o.maxExp, "max-exp", 15, "largest 2^k trace length for Fig 7")
	fs.StringVar(&o.solveOut, "solve-out", "", "with -exp solve: also write the results as a BENCH_solve.json document to this file")
	fs.StringVar(&o.activeOut, "active-out", "", "with -exp active: also write the results as a BENCH_active.json document to this file")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /metrics, /metrics.json and /debug/pprof/ on this address; counters accumulate across experiment runs")
	fs.StringVar(&o.runLog, "run-log", "", "append this evaluation's record to the run archive at this directory (see cmd/runstats)")
	return o
}

func main() {
	o := declareFlags(flag.CommandLine)
	flag.Usage = func() {
		fmt.Fprint(os.Stderr, usage)
		flag.PrintDefaults()
	}
	flag.Parse()

	// SIGINT/SIGTERM abort the evaluation at the next observation or
	// solver-round boundary instead of leaving a half-printed table; a
	// second signal (handler unregistered once cancelled) kills outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)
	experiments.Context = ctx
	if o.metricsAddr != "" {
		experiments.Telemetry = &repro.Telemetry{Registry: repro.NewRegistry()}
		srv, err := repro.ServeMetrics(o.metricsAddr, experiments.Telemetry.Registry)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "repro: metrics listening on %s\n", srv.URL())
	}
	if o.runLog != "" && experiments.Telemetry == nil {
		// Without a metrics endpoint the record still wants the
		// accumulated counters, so attach a registry either way.
		experiments.Telemetry = &repro.Telemetry{Registry: repro.NewRegistry()}
	}
	start := time.Now()
	if err := run(o, o.exp); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
	if o.runLog != "" {
		if err := writeRunRecord(o.runLog, o.exp, time.Since(start)); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
	}
}

// writeRunRecord archives one evaluation invocation: which experiment
// ran, how long it took, and the telemetry counters accumulated across
// its runs.
func writeRunRecord(dir, exp string, elapsed time.Duration) error {
	store, err := runlog.Open(dir)
	if err != nil {
		return err
	}
	rec := &runlog.Record{
		Version:   runlog.RecordVersion,
		Tool:      "repro",
		CreatedAt: time.Now().UTC().Format(time.RFC3339Nano),
		Config:    map[string]any{"exp": exp},
		WallMS:    float64(elapsed.Microseconds()) / 1e3,
		Verdict:   runlog.VerdictOK,
	}
	if tel := experiments.Telemetry; tel != nil && tel.Registry != nil {
		rec.Counters = tel.Registry.CounterValues()
		rec.Histograms = tel.Registry.Summaries()
	}
	_, err = store.Put(rec)
	return err
}

var figureCase = map[string]string{
	"fig1b": "USB Slot", "fig2": "Serial I/O Port", "fig3": "USB Attach",
	"fig4": "Integrator", "fig5": "Counter", "fig6": "Linux Kernel",
}

// allExperiments is what -exp all runs, in order.
var allExperiments = []string{"figures", "table1", "table2", "fig7", "ablation-w", "ablation-l", "ablation-sym", "synth-styles", "coverage", "invariants", "properties", "solve", "active"}

// experimentRunners maps every -exp name but all and the single
// figures of figureCase to its runner.
var experimentRunners = map[string]func(*options) error{
	"figures":      runFigures,
	"table1":       runTable1,
	"table2":       runTable2,
	"fig7":         runFig7,
	"ablation-w":   runAblationW,
	"ablation-l":   runAblationL,
	"ablation-sym": runAblationSym,
	"synth-styles": runSynthStyles,
	"coverage":     runCoverage,
	"invariants":   runInvariants,
	"properties":   runProperties,
	"solve":        runSolve,
	"active":       runActive,
	"ingest":       runIngest,
}

func run(o *options, exp string) error {
	if exp == "all" {
		for _, e := range allExperiments {
			if err := run(o, e); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	}
	if figureCase[exp] != "" {
		return runFigure(exp, o.dotDir)
	}
	r, ok := experimentRunners[exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return r(o)
}

func runFigures(o *options) error {
	for _, f := range []string{"fig1b", "fig3", "fig5", "fig2", "fig4", "fig6"} {
		if err := runFigure(f, o.dotDir); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func runFigure(fig, dotDir string) error {
	c, err := experiments.CaseByName(figureCase[fig])
	if err != nil {
		return err
	}
	start := time.Now()
	m, err := experiments.LearnCase(c, 0)
	if err != nil {
		return err
	}
	fmt.Printf("== %s (%s): learned %d states (paper: %d) in %s\n",
		fig, c.Name, m.States, c.PaperStates, time.Since(start).Round(time.Millisecond))
	fmt.Print(pipeline.Format(m.Stages))
	fmt.Print(m.Automaton.String())
	if fig == "fig2" {
		// Fig 2 contrasts the state-merge model (2a) with ours (2b).
		tr, err := c.Generate()
		if err != nil {
			return err
		}
		base, err := repro.LearnBaseline(repro.MINT, [][]string{repro.Tokenize(tr)}, repro.BaselineOptions{})
		if err != nil {
			return err
		}
		fmt.Printf("fig2a (state merge): %d states\n", base.States)
	}
	if dotDir != "" {
		if err := os.MkdirAll(dotDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(dotDir, fig+".dot")
		err := pipeline.AtomicWriteFile(path, func(w io.Writer) error {
			_, werr := io.WriteString(w, m.Automaton.DOT(c.Name))
			return werr
		})
		if err != nil {
			return err
		}
		fmt.Printf("DOT written to %s\n", path)
	}
	return nil
}

func runTable1(o *options) error {
	fmt.Println("== Table I: segmented vs non-segmented model construction")
	fmt.Printf("%-16s %3s %8s %14s %14s\n", "Example", "N", "Len", "Full Trace", "Segmented")
	rows, err := experiments.Table1(experiments.Cases(), o.fullTimeout)
	if err != nil {
		return err
	}
	for _, r := range rows {
		full := r.FullTime.Round(time.Millisecond).String()
		if r.FullTimedOut {
			full = fmt.Sprintf(">%s (timeout)", o.fullTimeout)
		}
		fmt.Printf("%-16s %3d %8d %14s %14s\n",
			r.Name, r.States, r.TraceLen, full, r.SegmentedTime.Round(time.Millisecond))
	}
	return nil
}

func runTable2(o *options) error {
	fmt.Println("== Table II: state merge vs model learning")
	fmt.Printf("%-16s %8s | %12s %10s | %12s %8s\n",
		"Example", "Len", "Merge time", "states", "Learn time", "states")
	rows, err := experiments.Table2(experiments.Cases(), o.mergeTimeout)
	if err != nil {
		return err
	}
	for _, r := range rows {
		mt := r.MergeTime.Round(time.Millisecond).String()
		ms := fmt.Sprintf("%d", r.MergeStates)
		if r.MergeTimedOut {
			mt = "timeout"
			ms = "no model"
		}
		fmt.Printf("%-16s %8d | %12s %10s | %12s %8d   (paper: %s vs %d)\n",
			r.Name, r.TraceLen, mt, ms,
			r.LearnTime.Round(time.Millisecond), r.LearnStates,
			r.PaperMergeStates, r.PaperLearnStates)
	}
	return nil
}

func runFig7(o *options) error {
	fmt.Println("== Fig 7: runtime vs trace length (integrator), log-log series")
	var lengths []int
	for k := 6; k <= o.maxExp; k++ {
		lengths = append(lengths, 1<<k)
	}
	points, err := experiments.Fig7(lengths, o.fullTimeout)
	if err != nil {
		return err
	}
	fmt.Printf("%10s %16s %16s\n", "len", "segmented", "non-segmented")
	for _, p := range points {
		full := p.FullTime.Round(time.Millisecond).String()
		if p.FullTimedOut {
			full = "timeout"
		}
		fmt.Printf("%10d %16s %16s\n", p.TraceLen, p.SegmentedTime.Round(time.Millisecond), full)
	}
	return nil
}

func runAblationW(*options) error {
	fmt.Println("== Ablation: segmentation window w (states must agree; §III-C)")
	c, err := experiments.CaseByName("Counter")
	if err != nil {
		return err
	}
	rows, err := experiments.AblationWindow(c, []int{2, 3, 4, 5, 6, 8}, 0)
	if err != nil {
		return err
	}
	fmt.Printf("%4s %8s %10s %12s\n", "w", "states", "segments", "time")
	for _, r := range rows {
		fmt.Printf("%4d %8d %10d %12s\n", r.Window, r.States, r.Segments, r.Time.Round(time.Millisecond))
	}
	return nil
}

func runAblationL(*options) error {
	fmt.Println("== Ablation: compliance length l (§III-C generalisation trade-off)")
	c, err := experiments.CaseByName("Counter")
	if err != nil {
		return err
	}
	rows, err := experiments.AblationCompliance(c, []int{1, 2, 3}, 0)
	if err != nil {
		return err
	}
	fmt.Printf("%4s %8s %12s\n", "l", "states", "time")
	for _, r := range rows {
		fmt.Printf("%4d %8d %12s\n", r.L, r.States, r.Time.Round(time.Millisecond))
	}
	return nil
}

func runAblationSym(*options) error {
	fmt.Println("== Ablation: state-ordering symmetry breaking (DESIGN.md §5 design choice)")
	// The four quick cases; rtlinux/integrator dominate on trace
	// generation rather than search and add little signal here.
	cases := experiments.Cases()[:4]
	rows, err := experiments.AblationSymmetry(cases, 2*time.Minute)
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %8s %12s %14s\n", "Example", "states", "with", "without")
	for _, r := range rows {
		fmt.Printf("%-16s %8d %12s %14s\n", r.Name, r.States,
			r.WithTime.Round(time.Millisecond), r.WithoutTime.Round(time.Millisecond))
	}
	return nil
}

func runSynthStyles(*options) error {
	fmt.Println("== Synthesis styles (§VII): minimal enumerative CEGIS vs trivial ite chain")
	rows, err := experiments.SynthStyles()
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%-30s minimal: %-30s (size %2d)   trivial: %s (size %d)\n",
			r.Name, r.MinimalExpr, r.MinimalSize, r.TrivialExpr, r.TrivialSize)
	}
	return nil
}

func runProperties(*options) error {
	fmt.Println("== Safety properties of learned models (paper conclusion: models as invariants)")
	rows, err := experiments.CheckProperties()
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(r.Describe())
	}
	return nil
}

func runInvariants(*options) error {
	fmt.Println("== Candidate state invariants (paper conclusion: models as inductive invariants)")
	for _, name := range []string{"Counter", "Integrator"} {
		c, err := experiments.CaseByName(name)
		if err != nil {
			return err
		}
		tr, err := c.Generate()
		if err != nil {
			return err
		}
		p, err := repro.NewPipeline(tr.Schema(), c.Options)
		if err != nil {
			return err
		}
		m, err := p.Learn(tr)
		if err != nil {
			return err
		}
		invs, err := m.StateInvariants(tr, 4)
		if err != nil {
			return err
		}
		fmt.Printf("%s (%d states):\n", name, m.States)
		for _, inv := range invs {
			fmt.Printf("  q%d (visited %6d×): %s\n", inv.State+1, inv.Visits, inv.Expr)
		}
	}
	return nil
}

func runIngest(*options) error {
	fmt.Println("== Ingestion: batch vs streaming (modular-counter CSV traces)")
	rows, err := experiments.RunIngest([]int{100_000, 1_000_000})
	if err != nil {
		return err
	}
	fmt.Printf("%10s %12s %12s %12s %12s %12s %7s %10s\n",
		"steps", "batch", "stream", "batch peak", "stream peak", "obs/s", "states", "identical")
	for _, r := range rows {
		fmt.Printf("%10d %12s %12s %11.1fM %11.1fM %12d %7d %10t\n",
			r.Steps,
			r.BatchWall.Round(time.Millisecond), r.StreamWall.Round(time.Millisecond),
			float64(r.BatchPeak)/1e6, float64(r.StreamPeak)/1e6,
			r.ObsPerSec, r.States, r.Identical)
	}
	return nil
}

func runSolve(o *options) error {
	fmt.Println("== Solver throughput: conflicts/sec on a PHP refutation and inside learning runs")
	rows, err := experiments.RunSolve()
	if err != nil {
		return err
	}
	fmt.Printf("%-22s %8s %10s %12s %12s %12s %14s %7s\n",
		"workload", "status", "wall", "conflicts", "learned", "conflicts/s", "props/s", "states")
	for _, r := range rows {
		states := ""
		if r.States > 0 {
			states = fmt.Sprintf("%d", r.States)
		}
		fmt.Printf("%-22s %8s %8.0fms %12d %12d %12.0f %14.0f %7s\n",
			r.Name, r.Status, r.WallMS, r.Conflicts, r.Learned, r.ConflictsPS, r.PropsPS, states)
	}
	if o.solveOut != "" {
		if err := pipeline.AtomicWriteFile(o.solveOut, func(w io.Writer) error {
			return experiments.WriteSolveBench(w, rows)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", o.solveOut)
	}
	return nil
}

func runActive(o *options) error {
	fmt.Println("== Active probing: refinement from truncated seed traces")
	rows, err := experiments.RunActive()
	if err != nil {
		return err
	}
	fmt.Printf("%10s %10s %10s %8s %11s %11s %7s %10s %10s\n",
		"system", "seed obs", "full obs", "rounds", "divergences", "stabilized", "states", "identical", "wall")
	for _, r := range rows {
		fmt.Printf("%10s %10d %10d %8d %11d %11t %7d %10t %9.0fms\n",
			r.System, r.SeedObs, r.FullObs, r.Rounds, r.Divergences,
			r.Stabilized, r.States, r.Identical, r.WallMS)
	}
	if o.activeOut != "" {
		if err := pipeline.AtomicWriteFile(o.activeOut, func(w io.Writer) error {
			return experiments.WriteActiveBench(w, rows)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", o.activeOut)
	}
	return nil
}

func runCoverage(*options) error {
	fmt.Println("== USB Slot coverage (§IV: unexercised datasheet transitions)")
	c, err := experiments.CaseByName("USB Slot")
	if err != nil {
		return err
	}
	m, err := experiments.LearnCase(c, 0)
	if err != nil {
		return err
	}
	rep := experiments.SlotCoverage(m)
	fmt.Printf("exercised: %s\n", strings.Join(rep.Exercised, ", "))
	fmt.Printf("missing:   %s\n", strings.Join(rep.Missing, ", "))
	return nil
}
