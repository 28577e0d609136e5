// Benchmarks regenerating every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`):
//
//	BenchmarkFig*      — the six learned-model figures (full pipeline)
//	BenchmarkTable1*   — segmented vs non-segmented model construction
//	BenchmarkTable2*   — state-merge baseline vs model learning
//	BenchmarkFig7*     — runtime vs trace length (integrator sweep)
//	BenchmarkAblation* — window-size and compliance-length ablations
//	BenchmarkSynth*    — the §VII synthesis-engine comparison
//
// cmd/repro prints the same data as formatted rows; the benchmarks
// exist so each measurement is reproducible under the standard Go
// tooling. The paper's non-segmented runs on the two >20k traces take
// >16 hours on its setup; their benchmark counterparts here measure a
// bounded run (timeout) and report it via the timeouts metric rather
// than blocking the suite.
package repro_test

import (
	"errors"
	"testing"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/learn"
	"repro/internal/predicate"
	"repro/internal/trace"
)

// learnBench runs the full pipeline for one benchmark case.
func learnBench(b *testing.B, name string, nonSegmented bool, timeout time.Duration) {
	b.Helper()
	c, err := experiments.CaseByName(name)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := c.Generate()
	if err != nil {
		b.Fatal(err)
	}
	opts := c.Options
	opts.NonSegmented = nonSegmented
	opts.Timeout = timeout
	b.ResetTimer()
	timeouts := 0
	for i := 0; i < b.N; i++ {
		m, err := repro.Learn(tr, opts)
		switch {
		case err == nil:
			b.ReportMetric(float64(m.States), "states")
		case nonSegmented && timeout > 0 && isTimeout(err):
			timeouts++
		default:
			b.Fatal(err)
		}
	}
	if timeouts > 0 {
		b.ReportMetric(float64(timeouts), "timeouts")
	}
}

func isTimeout(err error) bool {
	return errors.Is(err, repro.ErrTimeout)
}

// --- Figures: the six learned models -------------------------------

func BenchmarkFig1bUSBSlot(b *testing.B)   { learnBench(b, "USB Slot", false, 0) }
func BenchmarkFig3USBAttach(b *testing.B)  { learnBench(b, "USB Attach", false, 0) }
func BenchmarkFig5Counter(b *testing.B)    { learnBench(b, "Counter", false, 0) }
func BenchmarkFig2SerialPort(b *testing.B) { learnBench(b, "Serial I/O Port", false, 0) }
func BenchmarkFig6RTLinux(b *testing.B)    { learnBench(b, "Linux Kernel", false, 0) }
func BenchmarkFig4Integrator(b *testing.B) { learnBench(b, "Integrator", false, 0) }

// Fig 2a is the state-merge side of the serial-port comparison.
func BenchmarkFig2aSerialPortStateMerge(b *testing.B) {
	table2Bench(b, "Serial I/O Port", true)
}

// --- Table I: segmented vs non-segmented ---------------------------

func BenchmarkTable1SegmentedUSBSlot(b *testing.B)   { learnBench(b, "USB Slot", false, 0) }
func BenchmarkTable1FullTraceUSBSlot(b *testing.B)   { learnBench(b, "USB Slot", true, 0) }
func BenchmarkTable1SegmentedUSBAttach(b *testing.B) { learnBench(b, "USB Attach", false, 0) }
func BenchmarkTable1FullTraceUSBAttach(b *testing.B) { learnBench(b, "USB Attach", true, 0) }
func BenchmarkTable1SegmentedCounter(b *testing.B)   { learnBench(b, "Counter", false, 0) }
func BenchmarkTable1FullTraceCounter(b *testing.B)   { learnBench(b, "Counter", true, 0) }
func BenchmarkTable1SegmentedSerial(b *testing.B)    { learnBench(b, "Serial I/O Port", false, 0) }
func BenchmarkTable1FullTraceSerial(b *testing.B) {
	// The 2076-observation full-trace run is the largest that
	// completes in reasonable bench time; bound it like the paper
	// bounds its 16-hour runs.
	learnBench(b, "Serial I/O Port", true, 2*time.Minute)
}
func BenchmarkTable1SegmentedRTLinux(b *testing.B) { learnBench(b, "Linux Kernel", false, 0) }
func BenchmarkTable1FullTraceRTLinux(b *testing.B) {
	// Paper: >16 hours. Measured as a bounded run; the timeouts
	// metric reports that the bound was hit.
	learnBench(b, "Linux Kernel", true, 30*time.Second)
}
func BenchmarkTable1SegmentedIntegrator(b *testing.B) { learnBench(b, "Integrator", false, 0) }
func BenchmarkTable1FullTraceIntegrator(b *testing.B) {
	// Paper: >16 hours. Measured as a bounded run.
	learnBench(b, "Integrator", true, 30*time.Second)
}

// --- Table II: state merge vs model learning -----------------------

func table2Bench(b *testing.B, name string, merge bool) {
	b.Helper()
	c, err := experiments.CaseByName(name)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := c.Generate()
	if err != nil {
		b.Fatal(err)
	}
	if !merge {
		learnBench(b, name, false, 0)
		return
	}
	words := [][]string{repro.Tokenize(tr)}
	b.ResetTimer()
	timeouts := 0
	for i := 0; i < b.N; i++ {
		res, err := repro.LearnBaseline(repro.MINT, words, repro.BaselineOptions{Timeout: 30 * time.Second})
		switch {
		case err == nil:
			b.ReportMetric(float64(res.States), "states")
		case isTimeout(err):
			timeouts++ // the paper's "no model" entries
		default:
			b.Fatal(err)
		}
	}
	if timeouts > 0 {
		b.ReportMetric(float64(timeouts), "timeouts")
	}
}

func BenchmarkTable2StateMergeUSBSlot(b *testing.B)       { table2Bench(b, "USB Slot", true) }
func BenchmarkTable2ModelLearningUSBSlot(b *testing.B)    { table2Bench(b, "USB Slot", false) }
func BenchmarkTable2StateMergeUSBAttach(b *testing.B)     { table2Bench(b, "USB Attach", true) }
func BenchmarkTable2ModelLearningUSBAttach(b *testing.B)  { table2Bench(b, "USB Attach", false) }
func BenchmarkTable2StateMergeCounter(b *testing.B)       { table2Bench(b, "Counter", true) }
func BenchmarkTable2ModelLearningCounter(b *testing.B)    { table2Bench(b, "Counter", false) }
func BenchmarkTable2StateMergeSerial(b *testing.B)        { table2Bench(b, "Serial I/O Port", true) }
func BenchmarkTable2ModelLearningSerial(b *testing.B)     { table2Bench(b, "Serial I/O Port", false) }
func BenchmarkTable2StateMergeRTLinux(b *testing.B)       { table2Bench(b, "Linux Kernel", true) }
func BenchmarkTable2ModelLearningRTLinux(b *testing.B)    { table2Bench(b, "Linux Kernel", false) }
func BenchmarkTable2StateMergeIntegrator(b *testing.B)    { table2Bench(b, "Integrator", true) }
func BenchmarkTable2ModelLearningIntegrator(b *testing.B) { table2Bench(b, "Integrator", false) }

// --- Fig 7: runtime vs trace length --------------------------------

func fig7Bench(b *testing.B, length int, nonSegmented bool) {
	b.Helper()
	tr, err := experiments.GenIntegratorLen(length)
	if err != nil {
		b.Fatal(err)
	}
	opts := repro.LearnOptions{NonSegmented: nonSegmented}
	if nonSegmented {
		opts.Timeout = 30 * time.Second
	}
	b.ResetTimer()
	timeouts := 0
	for i := 0; i < b.N; i++ {
		_, err := repro.Learn(tr, opts)
		switch {
		case err == nil:
		case isTimeout(err):
			timeouts++
		default:
			b.Fatal(err)
		}
	}
	if timeouts > 0 {
		b.ReportMetric(float64(timeouts), "timeouts")
	}
}

func BenchmarkFig7Segmented64(b *testing.B)      { fig7Bench(b, 64, false) }
func BenchmarkFig7Segmented256(b *testing.B)     { fig7Bench(b, 256, false) }
func BenchmarkFig7Segmented1024(b *testing.B)    { fig7Bench(b, 1024, false) }
func BenchmarkFig7Segmented4096(b *testing.B)    { fig7Bench(b, 4096, false) }
func BenchmarkFig7Segmented32768(b *testing.B)   { fig7Bench(b, 32768, false) }
func BenchmarkFig7NonSegmented64(b *testing.B)   { fig7Bench(b, 64, true) }
func BenchmarkFig7NonSegmented256(b *testing.B)  { fig7Bench(b, 256, true) }
func BenchmarkFig7NonSegmented1024(b *testing.B) { fig7Bench(b, 1024, true) }

// --- Ablations ------------------------------------------------------

func BenchmarkAblationWindowW2(b *testing.B) { ablationWindowBench(b, 2) }
func BenchmarkAblationWindowW3(b *testing.B) { ablationWindowBench(b, 3) }
func BenchmarkAblationWindowW5(b *testing.B) { ablationWindowBench(b, 5) }

func ablationWindowBench(b *testing.B, w int) {
	b.Helper()
	c, err := experiments.CaseByName("Counter")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := c.Generate()
	if err != nil {
		b.Fatal(err)
	}
	opts := c.Options
	opts.SegmentWindow = w
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := repro.Learn(tr, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(m.States), "states")
	}
}

// --- §VII synthesis styles and pipeline stages ----------------------

func BenchmarkSynthStyles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SynthStyles(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredicateGeneration isolates the synthesis stage on the
// longest trace, demonstrating the window memoisation (32766 windows,
// a few hundred synthesizer calls).
func BenchmarkPredicateGeneration(b *testing.B) {
	tr, err := experiments.GenIntegrator()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := repro.NewPipeline(tr.Schema(), repro.LearnOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Learn(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSequence isolates predicate-sequence generation (no SAT
// phase) on the longest trace.
func BenchmarkSequence(b *testing.B) {
	tr, err := experiments.GenIntegrator()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := predicate.NewGenerator(tr.Schema(), predicate.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := g.Sequence(tr); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(g.Stats().UniqueWindows), "uniq")
	}
}

// BenchmarkFtraceParse isolates the tracing front end on the kernel
// benchmark's full system log.
func BenchmarkFtraceParse(b *testing.B) {
	tr, err := experiments.GenRTLinux()
	if err != nil {
		b.Fatal(err)
	}
	_ = tr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr2, err := experiments.GenRTLinux()
		if err != nil {
			b.Fatal(err)
		}
		if tr2.Len() == 0 {
			b.Fatal("empty trace")
		}
	}
	_ = trace.EventSchema()
}

// --- Model construction: scratch vs incremental vs portfolio --------

// benchGenerateModel isolates SAT-based model construction (no
// predicate stage) on the serial-port predicate sequence, the
// refinement-heaviest benchmark case. Canonical model extraction makes
// all three variants learn the identical automaton; only the work to
// get there differs.
func benchGenerateModel(b *testing.B, opts learn.Options) {
	b.Helper()
	c, err := experiments.CaseByName("Serial I/O Port")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := c.Generate()
	if err != nil {
		b.Fatal(err)
	}
	model, err := repro.Learn(tr, c.Options)
	if err != nil {
		b.Fatal(err)
	}
	opts.Segmented = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := learn.GenerateModelSeqs(symbolSeqs(model.P), opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Stats.FinalStates), "states")
		b.ReportMetric(float64(res.Stats.SATConflicts), "conflicts")
	}
}

func BenchmarkGenerateModelScratch(b *testing.B) {
	benchGenerateModel(b, learn.Options{ScratchRefinement: true})
}
func BenchmarkGenerateModelIncremental(b *testing.B) {
	benchGenerateModel(b, learn.Options{})
}
func BenchmarkGenerateModelPortfolio(b *testing.B) {
	benchGenerateModel(b, learn.Options{Portfolio: 4, Workers: 4})
}

// BenchmarkAblationSymmetry measures the learner with the
// state-ordering symmetry break disabled (design-choice ablation;
// compare BenchmarkFig2SerialPort).
func BenchmarkAblationSymmetryOffSerial(b *testing.B) {
	c, err := experiments.CaseByName("Serial I/O Port")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := c.Generate()
	if err != nil {
		b.Fatal(err)
	}
	opts := c.Options
	opts.NoSymmetryBreaking = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.Learn(tr, opts); err != nil {
			b.Fatal(err)
		}
	}
}
