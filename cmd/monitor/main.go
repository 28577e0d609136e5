// Command monitor checks execution traces against a previously learned
// model (the runtime-verification application that motivates the
// paper's RT-Linux benchmark): it loads a model saved by `t2m -save`,
// abstracts the trace with the same predicate generator the model was
// learned with, and reports the first behaviour the model does not
// explain.
//
// Usage:
//
//	monitor -model system.t2m -in trace.csv [-informat csv|events|ftrace]
//	        [-task comm-pid] [-stream] [-q] [-metrics-addr HOST:PORT]
//
// With -stream the trace is checked as it is decoded, in memory
// bounded by the window size — the mode to use when following a long
// or live trace (e.g. monitor -stream -in -). While checking,
// -metrics-addr serves live counters at /metrics and /metrics.json
// plus profiling at /debug/pprof/ — useful when the monitored trace
// runs for hours.
//
// With -active the trace is not read from a file: the named simulated
// system (see internal/systems) is driven live along its canonical
// workload schedule for -probe observations, and the conformance
// verdict — conforms, or diverges at step K with the witness symbol
// sequence — is printed (the single-shot form of cmd/probe's
// refinement loop).
//
// With -live no pre-learned model is needed: the monitor follows a
// growing trace file (or stdin) indefinitely and maintains the model
// as a live object — already-explained behaviour is checked with zero
// solver work, new behaviour extends the solver state incrementally,
// and a policy-driven re-minimization (-reminimize-every) keeps the
// model canonical. Each accepted revision prints a version line; each
// unexplained step prints a structured divergence line. The final
// model is byte-identical to a batch relearn over the consumed stream
// (-save persists it). -idle-exit stops following once the producer
// goes quiet; otherwise SIGINT/SIGTERM shuts the follower down
// cleanly.
//
// Exit status: 0 when the trace conforms (for -live: no divergence
// events), 1 on a violation or divergence, 2 on error.
package main

import (
	"context"
	"errors"
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
	"repro/internal/active"
	"repro/internal/runlog"
	"repro/internal/systems"
	"repro/internal/trace"
)

// usage is the synopsis printed by -h. TestUsageNamesEveryFlag asserts
// it names every registered flag, so it cannot drift the way the old
// hand-maintained synopsis did.
const usage = `usage: monitor -model system.t2m -in trace.csv [-informat csv|events|ftrace]
               [-task comm-pid] [-stream] [-q] [-metrics-addr HOST:PORT]
               [-stall-after D] [-run-log DIR]
       monitor -model system.t2m -active -system counter|fifo|serial|usbslot
               [-probe N] [-seed N] [-q] [-metrics-addr HOST:PORT]
               [-stall-after D] [-run-log DIR]
       monitor -live -in trace.csv [-informat csv|events|ftrace] [-task comm-pid]
               [-reminimize-every K] [-max-versions N] [-idle-exit D]
               [-save model.t2m] [-q] [-metrics-addr HOST:PORT] [-stall-after D]
               [-run-log DIR]

`

// options carries every flag of one monitor invocation.
type options struct {
	modelPath, in, informat, task string
	stream, quiet                 bool
	metricsAddr                   string
	active                        bool
	system                        string
	probe                         int
	seed                          int64
	runLog                        string
	stallAfter                    time.Duration
	live                          bool
	reminimizeEvery               int
	maxVersions                   int
	idleExit                      time.Duration
	savePath                      string
}

// declareFlags registers all flags on fs; split out so the usage smoke
// test can enumerate them against the synopsis above.
func declareFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.modelPath, "model", "", "model file written by t2m -save (required)")
	fs.StringVar(&o.in, "in", "", "trace file to check (required; - for stdin)")
	fs.StringVar(&o.informat, "informat", "", "input format: csv, events, ftrace (default by extension)")
	fs.StringVar(&o.task, "task", "", "ftrace: task to analyse (comm-pid)")
	fs.BoolVar(&o.stream, "stream", false, "check the trace as it streams: bounded memory, same verdict")
	fs.BoolVar(&o.quiet, "q", false, "suppress the conforming-trace message")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /metrics, /metrics.json and /debug/pprof/ on this address while checking")
	fs.BoolVar(&o.active, "active", false, "probe a live simulated system instead of reading a trace file")
	fs.StringVar(&o.system, "system", "", "with -active: system to probe: "+strings.Join(systems.Names(), ", "))
	fs.IntVar(&o.probe, "probe", 0, "with -active: probe length in observations (0 = the system's canonical trace length)")
	fs.Int64Var(&o.seed, "seed", 0, "with -active: workload schedule seed (0 = the system's default)")
	fs.StringVar(&o.runLog, "run-log", "", "append this run's record to the run archive at this directory (see cmd/runstats)")
	fs.DurationVar(&o.stallAfter, "stall-after", 0, "with -metrics-addr: /healthz reports stalled once no progress counter moved for this long (0 = 2m)")
	fs.BoolVar(&o.live, "live", false, "learn and maintain a model live from a growing trace or stdin (no -model needed)")
	fs.IntVar(&o.reminimizeEvery, "reminimize-every", 0, "with -live: force a full re-minimization every K new segments (0 = only when required)")
	fs.IntVar(&o.maxVersions, "max-versions", 0, "with -live: retained version-history length (0 = 64)")
	fs.DurationVar(&o.idleExit, "idle-exit", 0, "with -live: stop following once no new data arrived for this long (0 = follow until signalled)")
	fs.StringVar(&o.savePath, "save", "", "with -live: write the final maintained model to this file on exit")
	return o
}

// loadModel opens and deserialises the -model file.
func loadModel(o *options) (*repro.Model, error) {
	mf, err := os.Open(o.modelPath)
	if err != nil {
		return nil, err
	}
	defer mf.Close()
	return repro.LoadModel(mf)
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
		fmt.Fprintln(os.Stderr, "monitor:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(o *options) (int, error) {
	if o.live {
		return runLive(o)
	}
	if o.modelPath == "" {
		return 2, fmt.Errorf("-model is required (or -live to learn one from the stream)")
	}
	if o.active {
		return runActive(o)
	}
	if o.in == "" {
		return 2, fmt.Errorf("-in is required (or -active to probe a simulated system)")
	}
	model, err := loadModel(o)
	if err != nil {
		return 2, err
	}

	// SIGINT/SIGTERM cancel the check at the next observation boundary —
	// essential when following a live trace on stdin that never ends.
	// After the first signal the handler is unregistered, so a second
	// signal kills the process outright even if the source read is
	// blocked waiting for input that will never come.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)
	model.SetContext(ctx)

	start := time.Now()
	tel, srv, err := observability(o)
	if err != nil {
		return 2, err
	}
	if srv != nil {
		defer srv.Close()
	}
	if tel != nil {
		model.SetTelemetry(tel)
	}

	var violation *repro.Violation
	if o.stream {
		src, closer, err := openSource(o.in, o.informat, o.task)
		if err != nil {
			return 2, err
		}
		violation, err = model.CheckSource(src)
		closer()
		if err != nil {
			return 2, err
		}
		if violation == nil {
			if !o.quiet {
				fmt.Println("ok: model explains the whole trace")
			}
			return 0, writeRunRecord(o, tel, runlog.VerdictOK, time.Since(start), nil)
		}
	} else {
		tr, err := readTrace(o.in, o.informat, o.task)
		if err != nil {
			return 2, err
		}
		violation, err = model.Check(tr)
		if err != nil {
			return 2, err
		}
		if violation == nil {
			if !o.quiet {
				fmt.Printf("ok: model explains all %d observations\n", tr.Len())
			}
			return 0, writeRunRecord(o, tel, runlog.VerdictOK, time.Since(start), nil)
		}
	}
	tel.Count("monitor_divergences_total").Add(1)
	fmt.Println(violation)
	return 1, writeRunRecord(o, tel, runlog.VerdictViolation, time.Since(start), nil)
}

// observability assembles the optional telemetry of a checking run: a
// registry whenever the metrics endpoint or the run archive needs one,
// and — with -metrics-addr — the live endpoint with /healthz backed by
// a Health watching the abstraction's progress counter and the
// divergence counter, so a supervisor can detect a wedged or diverging
// monitor without parsing its output.
func observability(o *options) (*repro.Telemetry, *repro.MetricsServer, error) {
	if o.metricsAddr == "" && o.runLog == "" {
		return nil, nil, nil
	}
	tel := &repro.Telemetry{Registry: repro.NewRegistry()}
	if o.metricsAddr == "" {
		return tel, nil, nil
	}
	health := repro.NewHealth(o.stallAfter)
	progress := tel.Registry.Counter("predicate_windows_total")
	health.WatchProgress("predicate_windows_total", func() float64 { return float64(progress.Value()) })
	divName := "monitor_divergences_total"
	if o.live {
		divName = "live_divergence_total"
	}
	div := tel.Registry.Counter(divName)
	health.WatchDivergence(func() float64 { return float64(div.Value()) })
	health.Register(tel.Registry)
	srv, err := repro.ServeMetrics(o.metricsAddr, tel.Registry)
	if err != nil {
		return nil, nil, err
	}
	srv.SetHealth(health)
	fmt.Fprintf(os.Stderr, "monitor: metrics listening on %s\n", srv.URL())
	return tel, srv, nil
}

// writeRunRecord archives the check's outcome; a no-op without
// -run-log. The record's inputs (model file, trace file) give re-runs
// against the same artifacts a shared workload identity in runstats.
func writeRunRecord(o *options, tel *repro.Telemetry, verdict string, elapsed time.Duration, extra map[string]any) error {
	if o.runLog == "" {
		return nil
	}
	store, err := runlog.Open(o.runLog)
	if err != nil {
		return err
	}
	rec := &runlog.Record{
		Version:   runlog.RecordVersion,
		Tool:      "monitor",
		CreatedAt: time.Now().UTC().Format(time.RFC3339Nano),
		Config: map[string]any{
			"informat": o.informat,
			"task":     o.task,
			"stream":   o.stream,
			"active":   o.active,
			"system":   o.system,
			"probe":    o.probe,
			"seed":     o.seed,
		},
		WallMS:  float64(elapsed.Microseconds()) / 1e3,
		Verdict: verdict,
	}
	for k, v := range extra {
		rec.Config[k] = v
	}
	if o.modelPath != "" {
		rec.Inputs = append(rec.Inputs, repro.FileDigest(o.modelPath))
	}
	if !o.active && o.in != "" && o.in != "-" {
		rec.Inputs = append(rec.Inputs, repro.FileDigest(o.in))
	}
	if tel != nil && tel.Registry != nil {
		rec.Counters = tel.Registry.CounterValues()
		rec.Histograms = tel.Registry.Summaries()
	}
	_, err = store.Put(rec)
	return err
}

// runActive drives a simulated system along its canonical schedule and
// checks the observed trace against the model: active conformance
// checking, where the monitor interrogates the system instead of
// waiting for a trace file.
func runActive(o *options) (int, error) {
	if o.system == "" {
		return 2, fmt.Errorf("-active requires -system (one of %s)", strings.Join(systems.Names(), ", "))
	}
	sys, err := systems.Open(o.system)
	if err != nil {
		return 2, err
	}
	model, err := loadModel(o)
	if err != nil {
		return 2, err
	}
	start := time.Now()
	tel, srv, err := observability(o)
	if err != nil {
		return 2, err
	}
	if srv != nil {
		defer srv.Close()
	}
	if tel != nil {
		model.SetTelemetry(tel)
	}
	n := o.probe
	if n <= 0 {
		n = systems.CanonicalObservations(o.system)
	}
	probe, err := systems.DriveSchedule(sys, o.seed, n)
	if err != nil {
		return 2, err
	}
	verdict, err := active.Conformance(model, probe)
	if err != nil {
		return 2, err
	}
	if verdict.Conforms {
		if !o.quiet {
			fmt.Printf("ok: model explains all %d probed observations\n", probe.Len())
		}
		return 0, writeRunRecord(o, tel, runlog.VerdictOK, time.Since(start), nil)
	}
	tel.Count("monitor_divergences_total").Add(1)
	fmt.Println(verdict)
	return 1, writeRunRecord(o, tel, runlog.VerdictDivergence, time.Since(start), nil)
}

// runLive learns and maintains a model live from a growing trace —
// the monitor finally running indefinitely instead of replaying a
// finished file. The input is followed across EOF (whole lines only;
// a torn final line is retried, never misparsed), every accepted model
// revision prints a version line, and every step the current model
// cannot explain prints a divergence line. The final model covers the
// whole consumed stream and is byte-identical to a batch relearn over
// it (-save persists it in the t2m format).
func runLive(o *options) (int, error) {
	if o.in == "" {
		return 2, fmt.Errorf("-live requires -in (trace file to follow, or - for stdin)")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)

	start := time.Now()
	tel, srv, err := observability(o)
	if err != nil {
		return 2, err
	}
	if srv != nil {
		defer srv.Close()
	}

	src, closer, err := openLiveSource(o, ctx)
	if err != nil {
		return 2, err
	}
	defer closer()

	p, err := repro.NewPipeline(src.Schema(), repro.LearnOptions{Telemetry: tel, Context: ctx})
	if err != nil {
		return 2, err
	}
	mnt, err := p.NewMaintainer(repro.LiveOptions{
		ReminimizeEvery: o.reminimizeEvery,
		MaxVersions:     o.maxVersions,
		Telemetry:       tel,
		OnVersion: func(v repro.LiveVersion) {
			if o.quiet {
				return
			}
			mode := "extended"
			if v.Reminimized {
				mode = "reminimized"
			}
			fmt.Printf("live: version %d: %d states, %d transitions after %d steps (%s, digest %.12s)\n",
				v.Version, v.States, v.Transitions, v.Steps, mode, v.Digest)
		},
		OnDivergence: func(d repro.LiveDivergence) {
			fmt.Printf("live: divergence: %s\n", d)
		},
	})
	if err != nil {
		return 2, err
	}

	if err := p.MaintainSource(src, mnt); err != nil {
		// A signal mid-stream is an orderly shutdown, not a failure:
		// the follower drops its torn tail and the maintained model
		// stands as of the last complete line.
		if ctx.Err() == nil || !errors.Is(err, context.Canceled) {
			return 2, err
		}
	}

	divTotal, _ := mnt.Divergences()
	if !o.quiet {
		fmt.Printf("live: done: %d steps, model version %d, %d divergence(s)\n",
			mnt.Steps(), mnt.Version(), divTotal)
	}
	if o.savePath != "" {
		model, err := p.LiveModel(mnt)
		if err != nil {
			return 2, err
		}
		f, err := os.Create(o.savePath)
		if err != nil {
			return 2, err
		}
		if err := repro.SaveModel(f, model); err != nil {
			f.Close()
			return 2, err
		}
		if err := f.Close(); err != nil {
			return 2, err
		}
	}
	extra := map[string]any{
		"live":             true,
		"reminimize_every": o.reminimizeEvery,
		"max_versions":     o.maxVersions,
		"live_versions":    mnt.Versions(),
		"model_version":    mnt.Version(),
	}
	verdict, code := runlog.VerdictOK, 0
	if divTotal > 0 {
		verdict, code = runlog.VerdictDivergence, 1
	}
	return code, writeRunRecord(o, tel, verdict, time.Since(start), extra)
}

// openLiveSource opens the input for -live: a plain file handle (or
// stdin) behind a FollowReader, so the decoder sees an endless stream
// of whole lines that grows with the file. No mmap here — the file is
// still being written.
func openLiveSource(o *options, ctx context.Context) (repro.Source, func(), error) {
	var r io.Reader = os.Stdin
	closer := func() {}
	if o.in != "-" {
		f, err := os.Open(o.in)
		if err != nil {
			return nil, nil, err
		}
		closer = func() { f.Close() }
		r = f
	}
	fr := repro.NewFollowReader(r, repro.FollowOptions{IdleExit: o.idleExit, Context: ctx})
	switch resolveFormat(o.in, o.informat) {
	case "csv":
		src, err := repro.NewCSVSource(fr)
		if err != nil {
			closer()
			return nil, nil, err
		}
		return src, closer, nil
	case "events":
		return repro.NewEventsSource(fr), closer, nil
	case "ftrace":
		return repro.NewFtraceSource(fr, o.task, nil), closer, nil
	default:
		closer()
		return nil, nil, fmt.Errorf("unknown input format %q", o.informat)
	}
}

// openSource opens the input as a streaming source for -stream mode.
func openSource(in, informat, task string) (repro.Source, func(), error) {
	var f io.Reader = os.Stdin
	closer := func() {}
	if in != "-" {
		// OpenBytes mmaps the file when the platform allows, so the
		// line decoders run zero-copy over the page cache.
		b, err := trace.OpenBytes(in)
		if err != nil {
			return nil, nil, err
		}
		closer = func() { b.Close() }
		f = b
	}
	switch resolveFormat(in, informat) {
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
	default:
		closer()
		return nil, nil, fmt.Errorf("unknown input format %q", informat)
	}
}

func resolveFormat(in, informat string) string {
	if informat != "" {
		return informat
	}
	switch filepath.Ext(in) {
	case ".csv":
		return "csv"
	case ".ftrace", ".trace":
		return "ftrace"
	default:
		return "events"
	}
}

func readTrace(in, informat, task string) (*trace.Trace, error) {
	var f io.Reader = os.Stdin
	if in != "-" {
		b, err := trace.OpenBytes(in)
		if err != nil {
			return nil, err
		}
		defer b.Close()
		f = b
	}
	switch resolveFormat(in, informat) {
	case "csv":
		return trace.ReadCSV(f)
	case "events":
		return trace.ReadEvents(f)
	case "ftrace":
		return trace.Collect(trace.NewFtraceSource(f, task, nil))
	default:
		return nil, fmt.Errorf("unknown input format %q", informat)
	}
}
