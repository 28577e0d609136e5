// Command tracegen generates the benchmark traces of the paper's
// evaluation (Section IV) and writes them in the formats cmd/t2m
// consumes: CSV for traces with numeric variables, one event per line
// for event traces, and optionally a raw ftrace-style log for the
// Linux kernel benchmark.
//
// Usage:
//
//	tracegen -system usbslot|usbattach|counter|serial|rtlinux|integrator|fifo
//	         [-o FILE] [-n LENGTH] [-seed N] [-format csv|events|ftrace]
//
// With no -o the trace is written to stdout.
//
// Counter, serial and fifo traces are streamed straight to the output
// without being built in memory, so -n can ask for any length:
// -system counter or serial -n N emits an N-observation CSV by driving
// the system's workload schedule, and -system fifo -n N emits an
// N-cycle FIFO-occupancy VCD. The schedule is the one the library's
// batch generators replay, so the bytes equal theirs at the same
// length and seed — pinned by this package's golden test.
//
// -seed selects the workload schedule seed for the randomised systems
// (serial, rtlinux); 0 keeps each system's default, so existing
// invocations reproduce the committed benchmark traces.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/runlog"
	"repro/internal/systems/counter"
	"repro/internal/systems/rtlinux"
	"repro/internal/systems/serial"
	"repro/internal/trace"
)

// usage is the synopsis printed by -h. TestUsageNamesEveryFlag asserts
// it names every registered flag, so it cannot drift the way a
// hand-maintained synopsis can.
const usage = `usage: tracegen -system usbslot|usbattach|counter|serial|rtlinux|integrator|fifo
                [-o FILE] [-n LENGTH] [-seed N] [-format csv|events|ftrace]
                [-run-log DIR]

`

// options carries every flag of one tracegen invocation.
type options struct {
	system, out, format string
	length              int
	seed                int64
	runLog              string
}

// declareFlags registers all flags on fs; split out so the usage smoke
// test can enumerate them against the synopsis above.
func declareFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.system, "system", "", "benchmark system: usbslot, usbattach, counter, serial, rtlinux, integrator, fifo")
	fs.StringVar(&o.out, "o", "", "output file (default stdout)")
	fs.IntVar(&o.length, "n", 0, "trace length in observations (fifo: cycles; 0 = paper default; usbslot and usbattach only truncate)")
	fs.StringVar(&o.format, "format", "", "output format: csv, events, ftrace (default by schema)")
	fs.Int64Var(&o.seed, "seed", 0, "workload schedule seed for the randomised systems (0 = each system's default)")
	fs.StringVar(&o.runLog, "run-log", "", "append this generation's record (config, output digest, wall time) to the run archive at this directory (see cmd/runstats)")
	return o
}

func main() {
	o := declareFlags(flag.CommandLine)
	flag.Usage = func() {
		fmt.Fprint(os.Stderr, usage)
		flag.PrintDefaults()
	}
	flag.Parse()
	start := time.Now()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	if err := writeRunRecord(o, time.Since(start)); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// writeRunRecord archives the generation: its config, wall time and
// the digest of the produced trace, so downstream learning records can
// be joined back to the exact artifact they consumed. A no-op without
// -run-log.
func writeRunRecord(o *options, elapsed time.Duration) error {
	if o.runLog == "" {
		return nil
	}
	store, err := runlog.Open(o.runLog)
	if err != nil {
		return err
	}
	rec := &runlog.Record{
		Version:   runlog.RecordVersion,
		Tool:      "tracegen",
		CreatedAt: time.Now().UTC().Format(time.RFC3339Nano),
		Config: map[string]any{
			"system": o.system,
			"format": o.format,
			"n":      o.length,
			"seed":   o.seed,
		},
		WallMS:  float64(elapsed.Microseconds()) / 1e3,
		Verdict: runlog.VerdictOK,
	}
	if o.out != "" && o.out != "-" {
		rec.Inputs = []pipeline.InputDigest{pipeline.FileDigest(o.out)}
	}
	_, err = store.Put(rec)
	return err
}

func run(o *options) error {
	system, out, length, format := o.system, o.out, o.length, o.format
	var (
		tr  *trace.Trace
		err error
	)
	switch system {
	case "counter":
		return streamCSV(o, counter.DefaultConfig().Observations)
	case "serial":
		return streamCSV(o, serial.DefaultWorkload().Observations)
	case "fifo":
		if format != "" && format != "vcd" {
			return fmt.Errorf("-system fifo emits vcd only")
		}
		if length <= 0 {
			length = 10000
		}
		return writeOut(out, func(w io.Writer) error {
			return experiments.StreamFIFOVCD(w, length, 4)
		})
	case "usbslot":
		tr, err = experiments.GenUSBSlot()
	case "usbattach":
		tr, err = experiments.GenUSBAttach()
	case "rtlinux":
		cfg := rtlinux.DefaultConfig()
		if length > 0 {
			cfg.Events = length
		}
		if o.seed != 0 {
			cfg.Seed = o.seed
		}
		sim, nerr := rtlinux.New(cfg)
		if nerr != nil {
			return nerr
		}
		tr, err = sim.Run()
		if err == nil && format == "ftrace" {
			return writeOut(out, func(w io.Writer) error {
				_, werr := io.WriteString(w, sim.FtraceLog())
				return werr
			})
		}
	case "integrator":
		if length > 0 {
			tr, err = experiments.GenIntegratorLen(length)
		} else {
			tr, err = experiments.GenIntegrator()
		}
	case "":
		return fmt.Errorf("missing -system (one of: usbslot, usbattach, counter, serial, rtlinux, integrator, fifo)")
	default:
		return fmt.Errorf("unknown system %q", system)
	}
	if err != nil {
		return err
	}
	if length > 0 && tr.Len() > length {
		tr = tr.Slice(0, length)
	}

	if format == "" {
		if _, eerr := tr.Events(); eerr == nil && tr.Schema().Len() == 1 {
			format = "events"
		} else {
			format = "csv"
		}
	}
	switch format {
	case "csv":
		return writeOut(out, func(w io.Writer) error { return trace.WriteCSV(w, tr) })
	case "events":
		return writeOut(out, func(w io.Writer) error { return trace.WriteEvents(w, tr) })
	case "ftrace":
		return fmt.Errorf("-format ftrace is only supported with -system rtlinux")
	default:
		return fmt.Errorf("unknown format %q", format)
	}
}

// streamCSV writes the system's workload schedule as a CSV of -n
// observations (def when -n is unset), one observation at a time.
func streamCSV(o *options, def int) error {
	if o.format != "" && o.format != "csv" {
		return fmt.Errorf("-system %s emits csv only", o.system)
	}
	n := o.length
	if n <= 0 {
		n = def
	}
	return writeOut(o.out, func(w io.Writer) error {
		return experiments.StreamScheduleCSV(w, o.system, o.seed, n)
	})
}

// writeOut streams the generated trace to stdout or, for a file,
// writes it atomically so an interrupted generation never leaves a
// truncated trace behind.
func writeOut(path string, write func(io.Writer) error) error {
	if path == "" || path == "-" {
		return write(os.Stdout)
	}
	return pipeline.AtomicWriteFile(path, write)
}
