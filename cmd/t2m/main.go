// Command t2m (trace-to-model) learns a concise automaton from an
// execution trace file, running the paper's full pipeline: transition-
// predicate synthesis over sliding windows, then SAT-based minimal
// model construction with segmentation and compliance refinement.
//
// Usage:
//
//	t2m -in trace.csv [flags]
//
// Input formats (selected by -informat, default by extension):
//
//	csv     header "name:type,…" (types int, bool, sym), one
//	        observation per row
//	events  one event name per line
//	ftrace  ftrace text log; use -task to select the thread under
//	        analysis
//
// Output is a summary plus the learned automaton, as text or Graphviz
// DOT (-dot FILE).
//
// With -stream the trace file is never materialised: the decoder feeds
// a sliding window directly into predicate synthesis and the learner
// consumes the run-length-encoded predicate stream, so memory stays
// bounded by the number of distinct windows regardless of trace
// length. The learned automaton is byte-identical to the in-memory
// path.
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
	"repro/internal/pipeline"
	"repro/internal/runlog"
	"repro/internal/trace"
)

// config carries every flag of one t2m invocation.
type config struct {
	in, informat, task, signals string
	dotOut, saveOut             string
	predW, segW, compliL        int
	maxStates                   int
	workers, portfolio          int
	noSeg, stream, quiet        bool
	timeout                     time.Duration

	// Crash safety (see README "Crash safety").
	checkpointDir   string
	checkpointEvery int
	resume          bool

	// Observability (see README "Observability" and "Run analytics").
	traceOut      string
	traceFull     bool
	metricsAddr   string
	metricsLinger time.Duration
	manifestOut   string
	runLog        string
	profileBudget time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.in, "in", "", "input trace file (required; - for stdin)")
	flag.StringVar(&cfg.informat, "informat", "", "input format: csv, events, ftrace, vcd (default by extension)")
	flag.StringVar(&cfg.task, "task", "", "ftrace: task to analyse (comm-pid); empty keeps all events")
	flag.StringVar(&cfg.signals, "signals", "", "vcd: comma-separated signal names to observe (empty = all)")
	flag.StringVar(&cfg.dotOut, "dot", "", "write the learned automaton as Graphviz DOT to this file")
	flag.StringVar(&cfg.saveOut, "save", "", "write the learned model (for cmd/monitor) to this file")
	flag.IntVar(&cfg.predW, "pw", 0, "predicate window size (0 = schema default)")
	flag.IntVar(&cfg.segW, "w", 0, "segmentation window size (0 = 3, the paper's default)")
	flag.IntVar(&cfg.compliL, "l", 0, "compliance-check length (0 = 2, the paper's default)")
	flag.IntVar(&cfg.maxStates, "max-states", 0, "state-count cap (0 = 64)")
	flag.BoolVar(&cfg.noSeg, "no-segmentation", false, "disable segmentation (full-trace mode)")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "search timeout (0 = none)")
	flag.IntVar(&cfg.workers, "j", 0, "max concurrent solver-portfolio members, used only with -portfolio (0 = one per CPU; results identical)")
	flag.IntVar(&cfg.portfolio, "portfolio", 0, "race this many SAT solver configurations per solve (0/1 = serial; results identical)")
	flag.BoolVar(&cfg.stream, "stream", false, "stream the trace: bounded memory, identical model")
	flag.StringVar(&cfg.checkpointDir, "checkpoint", "", "periodically checkpoint the run into this directory (requires -stream)")
	flag.IntVar(&cfg.checkpointEvery, "checkpoint-every", 0, "ingest checkpoint interval in observations (0 = 100000)")
	flag.BoolVar(&cfg.resume, "resume", false, "resume from the newest valid checkpoint in -checkpoint instead of starting fresh")
	flag.BoolVar(&cfg.quiet, "q", false, "print only the automaton")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "write the run's span/event trace as NDJSON to this file (high-cardinality span kinds are sampled; see -trace-full)")
	flag.BoolVar(&cfg.traceFull, "trace-full", false, "emit every span unsampled (trace file grows with trace length)")
	flag.StringVar(&cfg.runLog, "run-log", "", "append this run's record to the run archive at this directory (see cmd/runstats)")
	flag.DurationVar(&cfg.profileBudget, "profile-budget", 0, "capture pprof heap+CPU profiles when a solver round or window synthesis exceeds this latency (0 = off; profiles land in the -run-log archive)")
	flag.StringVar(&cfg.metricsAddr, "metrics-addr", "", "serve /metrics, /metrics.json and /debug/pprof/ on this address (e.g. 127.0.0.1:0)")
	flag.DurationVar(&cfg.metricsLinger, "metrics-linger", 0, "keep the metrics endpoint up this long after the run (for scraping short runs)")
	flag.StringVar(&cfg.manifestOut, "manifest", "", "write the run manifest (config, metrics, model stats) as JSON to this file")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "t2m:", err)
		os.Exit(1)
	}
}

// telemetry assembles the run's telemetry from the observability flags:
// a registry whenever any consumer (endpoint, manifest, trace, run
// record) needs one, the NDJSON tracer, and the latency-budget
// profiler. The returned cleanup closes (flushing sampling rollups)
// and commits the trace file; it is written atomically, so an
// interrupted run leaves either the complete closed trace or no file —
// never a torn one. The SIGTERM/SIGINT cancel path runs the same
// cleanup via run's defer, so a killed run still leaves an inspectable
// trace with its per-kind rollups.
func telemetry(cfg config, store *runlog.Store) (*repro.Telemetry, func() error, error) {
	if cfg.traceOut == "" && cfg.metricsAddr == "" && cfg.manifestOut == "" &&
		store == nil && cfg.profileBudget <= 0 {
		return nil, func() error { return nil }, nil
	}
	tel := &repro.Telemetry{Registry: repro.NewRegistry()}
	cleanup := func() error { return nil }
	if cfg.traceOut != "" {
		af, err := pipeline.CreateAtomic(cfg.traceOut)
		if err != nil {
			return nil, nil, err
		}
		tel.Tracer = repro.NewTracer(af)
		if !cfg.traceFull {
			tel.Tracer.SetPolicy(repro.DefaultSamplePolicy())
		}
		cleanup = func() error {
			if err := tel.Tracer.Close(); err != nil {
				af.Abort()
				return err
			}
			return af.Commit()
		}
	}
	if cfg.profileBudget > 0 {
		// Profiles land next to the run records they explain; without an
		// archive they fall back to the working directory.
		dir := "."
		if store != nil {
			dir = store.ProfileDir()
		}
		prefix := fmt.Sprintf("t2m-%d", os.Getpid())
		tel.Profiler = pipeline.NewProfiler(dir, prefix, cfg.profileBudget)
		hs := pipeline.StartHeapSampler(0)
		tel.Profiler.SetHeapSampler(hs)
		prev := cleanup
		cleanup = func() error { hs.Stop(); return prev() }
	}
	return tel, cleanup, nil
}

func run(cfg config) (err error) {
	if cfg.in == "" {
		return fmt.Errorf("missing -in")
	}
	if cfg.checkpointDir != "" && !cfg.stream {
		return fmt.Errorf("-checkpoint requires -stream")
	}
	if cfg.resume && cfg.checkpointDir == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}

	// SIGINT/SIGTERM cancel the run context: the pipeline stops at the
	// next safe boundary, the deferred cleanups below still flush the
	// telemetry trace and the last checkpoint written stays resumable.
	// The first signal unregisters the handler, so a second one kills
	// the process outright (e.g. when stuck on a blocked stdin read).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)

	var store *runlog.Store
	if cfg.runLog != "" {
		if store, err = runlog.Open(cfg.runLog); err != nil {
			return err
		}
	}
	tel, cleanup, err := telemetry(cfg, store)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := cleanup(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	var srv *repro.MetricsServer
	if cfg.metricsAddr != "" {
		srv, err = repro.ServeMetrics(cfg.metricsAddr, tel.Registry)
		if err != nil {
			return err
		}
		defer srv.Close()
		// Printed unconditionally (and before the run) so scripts can
		// resolve a ":0" listener's port.
		fmt.Printf("metrics: listening on %s\n", srv.URL())
	}

	// The input digest feeds both the manifest and the checkpoint
	// chain; computed once, and only when some artifact records it.
	var input *pipeline.InputDigest
	if cfg.in != "-" && (cfg.manifestOut != "" || cfg.checkpointDir != "" || store != nil) {
		d := repro.FileDigest(cfg.in)
		d.Format = detectFormat(cfg.in, cfg.informat)
		input = &d
	}

	opts := repro.LearnOptions{
		PredicateWindow: cfg.predW,
		SegmentWindow:   cfg.segW,
		ComplianceLen:   cfg.compliL,
		MaxStates:       cfg.maxStates,
		NonSegmented:    cfg.noSeg,
		Timeout:         cfg.timeout,
		Portfolio:       cfg.portfolio,
		Workers:         cfg.workers,
		Telemetry:       tel,
		Context:         ctx,
		CheckpointDir:   cfg.checkpointDir,
		CheckpointEvery: cfg.checkpointEvery,
		Resume:          cfg.resume,
		CheckpointInput: input,
	}
	if cfg.resume && !cfg.quiet {
		if info, ierr := repro.InspectCheckpoint(cfg.checkpointDir); ierr == nil {
			fmt.Printf("resuming from checkpoint %d (%s phase, offset %d)\n", info.Seq, info.Phase, info.Offset)
		}
	}

	var (
		model   *repro.Model
		obsSeen int64
		nVars   int
	)
	start := time.Now()
	// The run record is written on every exit path — success, error or
	// interrupt — so the archive keeps the residue of failed runs too.
	defer func() {
		if store == nil {
			return
		}
		verdict := runlog.VerdictOK
		if err != nil {
			verdict = runlog.VerdictError
			if ctx.Err() != nil {
				verdict = runlog.VerdictInterrupted
			}
		}
		if werr := writeRunRecord(store, cfg, model, tel, input, time.Since(start), verdict); werr != nil && err == nil {
			err = werr
		}
	}()
	if cfg.stream {
		src, closer, err := openSource(cfg.in, cfg.informat, cfg.task, cfg.signals)
		if err != nil {
			return err
		}
		nVars = src.Schema().Len()
		model, err = repro.LearnSource(src, opts)
		closer()
		if err != nil {
			return err
		}
		for _, st := range model.Stages {
			if st.Name == "predicate" {
				obsSeen = st.Counter("observations")
			}
		}
	} else {
		tr, err := readTrace(cfg.in, cfg.informat, cfg.task, cfg.signals)
		if err != nil {
			return err
		}
		nVars = tr.Schema().Len()
		obsSeen = int64(tr.Len())
		model, err = repro.Learn(tr, opts)
		if err != nil {
			return err
		}
	}
	elapsed := time.Since(start)

	if !cfg.quiet {
		fmt.Printf("trace: %d observations over %d variables\n", obsSeen, nVars)
		fmt.Printf("predicate alphabet: %d symbols\n", len(model.Alphabet))
		fmt.Printf("segments: %d, solver calls: %d, refinements: %d+%d\n",
			model.LearnStats.Segments, model.LearnStats.SolverCalls,
			model.LearnStats.Refinements, model.LearnStats.AcceptRefinements)
		fmt.Printf("solver: %d conflicts, %d decisions, %d propagations, %d learned clauses\n",
			model.LearnStats.SATConflicts, model.LearnStats.SATDecisions,
			model.LearnStats.SATPropagations, model.LearnStats.SATLearned)
		fmt.Printf("learned %d-state automaton in %s\n", model.States, elapsed.Round(time.Millisecond))
		fmt.Print(pipeline.Format(model.Stages))
		fmt.Println()
	}
	fmt.Print(model.Automaton.String())

	if cfg.dotOut != "" {
		name := filepath.Base(cfg.in)
		err := pipeline.AtomicWriteFile(cfg.dotOut, func(w io.Writer) error {
			_, werr := io.WriteString(w, model.Automaton.DOT(name))
			return werr
		})
		if err != nil {
			return err
		}
		if !cfg.quiet {
			fmt.Printf("\nDOT written to %s\n", cfg.dotOut)
		}
	}
	if cfg.saveOut != "" {
		err := pipeline.AtomicWriteFile(cfg.saveOut, func(w io.Writer) error {
			return repro.SaveModel(w, model)
		})
		if err != nil {
			return err
		}
		if !cfg.quiet {
			fmt.Printf("model written to %s\n", cfg.saveOut)
		}
	}
	if cfg.manifestOut != "" {
		if err := writeManifest(cfg, model, tel, input); err != nil {
			return err
		}
		if !cfg.quiet {
			fmt.Printf("manifest written to %s\n", cfg.manifestOut)
		}
	}
	if srv != nil && cfg.metricsLinger > 0 {
		fmt.Fprintf(os.Stderr, "t2m: metrics endpoint lingering %s at %s\n", cfg.metricsLinger, srv.URL())
		time.Sleep(cfg.metricsLinger)
	}
	return nil
}

// writeManifest assembles and writes the run-manifest artifact: model
// and stage statistics from the learning run, counters and histogram
// summaries from the registry, the invocation's config, and the input
// file's digest.
func writeManifest(cfg config, model *repro.Model, tel *repro.Telemetry, input *pipeline.InputDigest) error {
	man := model.BuildManifest(tel)
	man.Tool = "t2m"
	man.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	man.Config = configMap(cfg)
	if input != nil {
		man.Inputs = []pipeline.InputDigest{*input}
	}
	return man.WriteFile(cfg.manifestOut)
}

// configMap renders the learning-relevant flags for the manifest and
// the run record. Observability flags (trace, metrics, archive paths)
// are deliberately excluded: they never change what was computed, and
// runlog groups re-runs of the same workload by this map.
func configMap(cfg config) map[string]any {
	return map[string]any{
		"informat":        detectFormat(cfg.in, cfg.informat),
		"pw":              cfg.predW,
		"w":               cfg.segW,
		"l":               cfg.compliL,
		"max_states":      cfg.maxStates,
		"no_segmentation": cfg.noSeg,
		"workers":         cfg.workers,
		"portfolio":       cfg.portfolio,
		"stream":          cfg.stream,
		"timeout":         cfg.timeout.String(),
	}
}

// writeRunRecord archives the run: the manifest skeleton (stages,
// counters, histograms, model statistics) plus the measured outcome
// and any pprof captures the profiler committed.
func writeRunRecord(store *runlog.Store, cfg config, model *repro.Model, tel *repro.Telemetry, input *pipeline.InputDigest, elapsed time.Duration, verdict string) error {
	var man *pipeline.Manifest
	if model != nil {
		man = model.BuildManifest(tel)
	}
	rec := runlog.FromManifest(man)
	rec.Tool = "t2m"
	rec.CreatedAt = time.Now().UTC().Format(time.RFC3339Nano)
	rec.Config = configMap(cfg)
	if input != nil {
		rec.Inputs = []pipeline.InputDigest{*input}
	}
	rec.WallMS = float64(elapsed.Microseconds()) / 1e3
	rec.Verdict = verdict
	if prof := tel.Prof(); prof != nil {
		// Wait for the bounded forward CPU capture so the record's
		// profile list is complete; capture errors degrade the record,
		// not the run.
		_ = prof.Wait()
		rec.Profiles = prof.Files()
	}
	_, err := store.Put(rec)
	return err
}

func readTrace(in, informat, task, signals string) (*trace.Trace, error) {
	var f io.Reader = os.Stdin
	if in != "-" {
		// OpenBytes mmaps the file when the platform allows, so the
		// line decoders run zero-copy over the page cache.
		b, err := trace.OpenBytes(in)
		if err != nil {
			return nil, err
		}
		defer b.Close()
		f = b
	}
	switch detectFormat(in, informat) {
	case "csv":
		return trace.ReadCSV(f)
	case "events":
		return trace.ReadEvents(f)
	case "ftrace":
		return trace.Collect(trace.NewFtraceSource(f, task, nil))
	case "vcd":
		var names []string
		if signals != "" {
			names = strings.Split(signals, ",")
		}
		return trace.ReadVCD(f, names)
	default:
		return nil, fmt.Errorf("unknown input format %q", informat)
	}
}

// detectFormat resolves the input format from the flag or the file
// extension.
func detectFormat(in, informat string) string {
	if informat != "" {
		return informat
	}
	switch filepath.Ext(in) {
	case ".csv":
		return "csv"
	case ".ftrace", ".trace":
		return "ftrace"
	case ".vcd":
		return "vcd"
	default:
		return "events"
	}
}

// openSource opens the input as a streaming trace source. The returned
// closer releases the underlying file (a no-op for stdin).
func openSource(in, informat, task, signals string) (repro.Source, func(), error) {
	var f io.Reader = os.Stdin
	closer := func() {}
	if in != "-" {
		// OpenBytes mmaps the file when the platform allows: the CSV,
		// events and ftrace sources then decode zero-copy straight out
		// of the page cache.
		b, err := trace.OpenBytes(in)
		if err != nil {
			return nil, nil, err
		}
		closer = func() { b.Close() }
		f = b
	}
	switch detectFormat(in, informat) {
	case "csv":
		src, err := repro.NewCSVSource(f)
		if err != nil {
			closer()
			return nil, nil, err
		}
		return src, closer, nil
	case "events":
		return repro.NewEventsSource(f), closer, nil
	case "ftrace":
		return repro.NewFtraceSource(f, task, nil), closer, nil
	case "vcd":
		var names []string
		if signals != "" {
			names = strings.Split(signals, ",")
		}
		src, err := repro.NewVCDSource(f, names)
		if err != nil {
			closer()
			return nil, nil, err
		}
		return src, closer, nil
	default:
		closer()
		return nil, nil, fmt.Errorf("unknown input format %q", informat)
	}
}
