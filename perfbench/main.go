// Command perfbench is the repository's benchmark: it generates seeded
// inputs, runs one named workload as a single closed-loop client for a
// fixed time, checks every learned model with checks that share no code
// with the learner, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as one JSON object on the last line
// of standard output. See README.md for the workloads and metrics.
//
//	go run . --workload ingest|paper-six|live-serial --seed N --seconds S --trace 0|1
//
// Run it from the repository root through run.sh, which builds it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/pipeline"
)

// workDir holds the generated input files of a run, under the build
// directory run.sh uses.
const workDir = ".bench_build/work"

// setupRuns is how many times a run builds its inputs; setup_s is the
// median.
const setupRuns = 5

// tailFloor pins each workload's revise_tail_ms percentile: the highest
// percentile with ten samples beyond it that a 30-second run of the
// workload reaches. A run goes on past --seconds until it has that many
// samples, so the tail is the same percentile in every run.
var tailFloor = map[string]float64{"ingest": 50, "paper-six": 95, "live-serial": 95}

// tailOf is the highest percentile with ten samples beyond it, or 0
// when there is none.
func tailOf(xs []float64) float64 {
	if p, _ := tailPercentile(xs); p < 100 {
		return p
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
}

func main() {
	var c config
	flag.StringVar(&c.workload, "workload", "", "ingest, paper-six or live-serial")
	flag.Int64Var(&c.seed, "seed", 1, "input seed; 1 reproduces the paper's trace lengths")
	flag.IntVar(&c.seconds, "seconds", 10, "how long to measure")
	flag.IntVar(&c.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	os.Exit(run(c))
}

func run(c config) int {
	w, err := newWorkload(c.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if c.seconds < 1 || (c.trace != 0 && c.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(workDir, c.workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	env := environment(c)
	js, _ := json.Marshal(env)
	fmt.Printf("env %s\n", js)

	var res *result
	if c.trace == 1 {
		res = traced(w, c, dir)
	} else {
		res = untraced(w, c, dir)
	}
	js, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(js))
	if !res.Correct {
		return 1
	}
	return 0
}

// ledger carries a run's failure accounting and reference models.
type ledger struct {
	w         workload
	c         config
	attempted int
	failed    int
	reference map[string][]byte // saved models of the warm-up iteration
}

func (s *ledger) fail(format string, args ...any) {
	s.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
}

// iterate runs one pass and compares its models with the warm-up's:
// every pass learns the same inputs, so every model must save to the
// same bytes. It returns nil when the pass failed.
func (s *ledger) iterate(tel *pipeline.Telemetry) *iteration {
	it, err := s.w.iterate(tel)
	if err != nil {
		s.attempted++
		s.fail("%v", err)
		return nil
	}
	s.attempted += it.ops
	if s.reference == nil {
		s.reference = it.saved
		return it
	}
	for name, b := range it.saved {
		if !bytes.Equal(b, s.reference[name]) {
			s.fail("%s: model differs between iterations (%s vs %s)", name, digest(b)[:12], digest(s.reference[name])[:12])
			return nil
		}
	}
	return it
}

// verify runs the independent model checks once, outside timing.
func (s *ledger) verify() {
	s.attempted++
	if err := s.w.verify(s.c.seed); err != nil {
		s.fail("model check: %v", err)
	}
}

func (s *ledger) result(metrics map[string]metric) *result {
	if s.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: error_rate %.4f (%d of %d operations failed)\n",
			float64(s.failed)/float64(s.attempted), s.failed, s.attempted)
	}
	if metrics == nil {
		metrics = map[string]metric{}
	}
	return &result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: metrics}
}

// setup builds the inputs n times and returns the set-up times.
func (s *ledger) setup(dir string, n int) ([]float64, bool) {
	var times []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		err := s.w.setup(dir, s.c.seed)
		s.attempted++
		if err != nil {
			s.fail("setup: %v", err)
			return nil, false
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return times, true
}

// untraced measures the end-to-end metrics: set-up, then a warm-up
// pass, then closed-loop passes until the time is up, then the model
// checks.
func untraced(w workload, c config, dir string) *result {
	s := &ledger{w: w, c: c}
	setupTimes, ok := s.setup(dir, setupRuns)
	if !ok || s.iterate(nil) == nil {
		return s.result(nil)
	}
	var learn, check, cpu, alloc, peak, revise []float64
	floor := tailFloor[c.workload]
	deadline := time.Now().Add(time.Duration(c.seconds) * time.Second)
	for time.Now().Before(deadline) || tailOf(revise) < floor {
		runtime.GC()
		m := startMeter()
		it := s.iterate(nil)
		cpuS, allocMB, peakMB := m.stop()
		if it == nil {
			return s.result(nil)
		}
		learn = append(learn, it.learn.Seconds())
		check = append(check, it.check.Seconds())
		cpu = append(cpu, cpuS)
		alloc = append(alloc, allocMB)
		peak = append(peak, peakMB)
		for _, d := range it.revise {
			revise = append(revise, float64(d)/1e6)
		}
	}
	s.verify()

	fmt.Fprintf(os.Stderr, "%s seed %d: %d passes, %d solver-running operations; revise tail is p%g\n",
		c.workload, c.seed, len(learn), len(revise), floor)
	metrics := map[string]metric{
		"setup_s":        {median(setupTimes), "s"},
		"learn_s":        {median(learn), "s"},
		"check_s":        {median(check), "s"},
		"revise_p50_ms":  {quantile(revise, 0.5), "ms"},
		"revise_tail_ms": {quantile(revise, floor/100), "ms"},
		"cpu_s":          {median(cpu), "s"},
		"alloc_mb":       {median(alloc), "MB"},
		"peak_heap_mb":   {median(peak), "MB"},
	}
	for _, name := range []string{"setup_s", "learn_s", "check_s", "revise_p50_ms", "revise_tail_ms", "cpu_s", "alloc_mb", "peak_heap_mb"} {
		fmt.Fprintf(os.Stderr, "  %-16s %12.4f %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
	return s.result(metrics)
}

// traced measures the per-layer metrics. It alternates untraced and
// traced passes until the time is up; a traced pass records into a
// fresh telemetry registry and is followed by a decode-only pass over
// the same input. Per-layer values are medians over the traced passes,
// and the tracing overhead is the traced minus the untraced median.
func traced(w workload, c config, dir string) *result {
	s := &ledger{w: w, c: c}
	if _, ok := s.setup(dir, 1); !ok || s.iterate(nil) == nil {
		return s.result(nil)
	}
	var sets []layerSet
	var plain, withTel []float64
	deadline := time.Now().Add(time.Duration(c.seconds) * time.Second)
	for len(sets) == 0 || time.Now().Before(deadline) {
		it := s.iterate(nil)
		if it == nil {
			return s.result(nil)
		}
		plain = append(plain, (it.learn + it.check).Seconds())

		reg := pipeline.NewRegistry()
		if it = s.iterate(&pipeline.Telemetry{Registry: reg}); it == nil {
			return s.result(nil)
		}
		withTel = append(withTel, (it.learn + it.check).Seconds())
		it.layers.addRegistry(reg)
		d, err := w.decode()
		s.attempted++
		if err != nil {
			s.fail("decode pass: %v", err)
			return s.result(nil)
		}
		d.record(it.layers)
		it.layers.finish()
		sets = append(sets, it.layers)
	}
	s.verify()

	l := medianLayers(sets)
	l["layers.untraced_s"] = median(plain)
	l["tracing.overhead_s"] = median(withTel) - median(plain)
	fmt.Fprintf(os.Stderr, "%s seed %d: %d traced passes; self-times must sum to the untraced learn+check time within %.0f%%\n%s",
		c.workload, c.seed, len(sets), 100*layerTolerance, formatLayers(l))
	if absent := absentLayers[c.workload]; absent != "" {
		fmt.Fprintf(os.Stderr, "  (zero by design: %s)\n", absent)
	}
	s.attempted++
	if err := checkLayers(l, l["layers.untraced_s"]); err != nil {
		s.fail("layer accounting: %v", err)
	}
	metrics := map[string]metric{}
	for _, m := range layerMetrics {
		metrics[m.name] = metric{l[m.name], m.unit}
	}
	return s.result(metrics)
}

// absentLayers says which layers a workload does not run.
var absentLayers = map[string]string{
	"ingest":      "live.* — only live-serial runs the live maintainer",
	"paper-six":   "trace.* — paper-six learns from in-memory traces; live.* — only live-serial runs the live maintainer",
	"live-serial": "",
}

// environment records what the figures depend on.
func environment(c config) map[string]any {
	return map[string]any{
		"workload":   c.workload,
		"seed":       c.seed,
		"seconds":    c.seconds,
		"trace":      c.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo where there is
// one.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
