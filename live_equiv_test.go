package repro_test

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// liveRun drives one CSV trace through the live maintenance path and
// records, at every version boundary, the version entry together with
// the model text that was current when it was emitted.
type liveVersionRec struct {
	v     repro.LiveVersion
	model string
}

func runLiveCSV(t *testing.T, csvBytes []byte, opts repro.LearnOptions, lopts repro.LiveOptions) (*repro.LiveMaintainer, *repro.Pipeline, []liveVersionRec) {
	t.Helper()
	src, err := trace.NewCSVSource(bytes.NewReader(csvBytes))
	if err != nil {
		t.Fatal(err)
	}
	p, err := repro.NewPipeline(src.Schema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var recs []liveVersionRec
	var mnt *repro.LiveMaintainer
	lopts.OnVersion = func(v repro.LiveVersion) {
		recs = append(recs, liveVersionRec{v: v, model: mnt.Model().String()})
	}
	mnt, err = p.NewMaintainer(lopts)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.MaintainSource(src, mnt); err != nil {
		t.Fatal(err)
	}
	return mnt, p, recs
}

// TestLiveMatchesBatchEveryVersion is the ISSUE's property test: for
// the counter, fifo, and serial workloads, the live-maintained model at
// every version boundary V must be byte-identical to a fresh batch
// learn over exactly the prefix the version's watermark covers. A
// version covering S predicate steps corresponds to the first S+w-1
// observations (the generator's window w spans w observations per
// symbol).
func TestLiveMatchesBatchEveryVersion(t *testing.T) {
	const steps = 240
	for _, workload := range []string{"counter", "fifo", "serial"} {
		var buf bytes.Buffer
		if err := experiments.StreamScheduleCSV(&buf, workload, 1, steps); err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(buf.String(), "\n")
		header, data := lines[0], lines[1:]
		t.Run(workload, func(t *testing.T) {
			mnt, p, recs := runLiveCSV(t, buf.Bytes(), repro.LearnOptions{}, repro.LiveOptions{})
			if len(recs) == 0 {
				t.Fatal("no versions emitted")
			}
			w := p.Generator().Window()
			for _, rec := range recs {
				obsCount := int(rec.v.Steps) + w - 1
				if obsCount > len(data) {
					t.Fatalf("v%d watermark %d steps exceeds %d observations", rec.v.Version, rec.v.Steps, len(data))
				}
				prefix := header + strings.Join(data[:obsCount], "")
				psrc, err := trace.NewCSVSource(strings.NewReader(prefix))
				if err != nil {
					t.Fatal(err)
				}
				batch, err := repro.LearnSource(psrc, repro.LearnOptions{})
				if err != nil {
					t.Fatalf("v%d: batch relearn over %d observations: %v", rec.v.Version, obsCount, err)
				}
				if bs := batch.Automaton.String(); bs != rec.model {
					t.Fatalf("v%d (steps %d): live model diverged from batch over the same prefix:\nlive:\n%s\nbatch:\n%s",
						rec.v.Version, rec.v.Steps, rec.model, bs)
				}
			}
			// The final live model must equal a batch learn over the
			// whole stream (the last version's watermark is the
			// stream end whenever the tail carried new evidence; this
			// pins it even when the tail was all fast-path).
			fsrc, err := trace.NewCSVSource(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			full, err := repro.LearnSource(fsrc, repro.LearnOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if fs, ls := full.Automaton.String(), mnt.Model().String(); fs != ls {
				t.Fatalf("final live model diverged from batch over the full stream:\nlive:\n%s\nbatch:\n%s", ls, fs)
			}
		})
	}
}

// TestLiveReminimizePolicyIdentical pins the ISSUE's policy clause: the
// re-minimization cadence changes when full searches happen, never what
// is learned. Every ReminimizeEvery setting must land on the same final
// model and the same version digests at the same watermarks.
func TestLiveReminimizePolicyIdentical(t *testing.T) {
	const steps = 240
	var buf bytes.Buffer
	if err := experiments.StreamScheduleCSV(&buf, "serial", 1, steps); err != nil {
		t.Fatal(err)
	}
	type boundary struct {
		steps  int64
		digest string
	}
	var baseline []boundary
	for i, every := range []int{0, 1, 4} {
		mnt, _, recs := runLiveCSV(t, buf.Bytes(), repro.LearnOptions{},
			repro.LiveOptions{ReminimizeEvery: every})
		var got []boundary
		for _, rec := range recs {
			got = append(got, boundary{steps: rec.v.Steps, digest: rec.v.Digest})
		}
		if i == 0 {
			baseline = got
			continue
		}
		if len(got) != len(baseline) {
			t.Fatalf("ReminimizeEvery=%d: %d versions, baseline %d", every, len(got), len(baseline))
		}
		for j := range got {
			if got[j] != baseline[j] {
				t.Fatalf("ReminimizeEvery=%d: version %d = %+v, baseline %+v", every, j+1, got[j], baseline[j])
			}
		}
		_ = mnt
	}
}

// TestLiveStreamBoundedMemory is the live counterpart of
// TestStreamingBoundedMemory and the ISSUE's scale criterion: the
// maintainer survives a one-million-step stream inside the same 48 MB
// streaming envelope, settles into the fast path (a handful of
// versions, not thousands), and its final model is byte-identical to a
// batch relearn of the whole stream.
func TestLiveStreamBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-step trace; skipped with -short")
	}
	const steps = 1_000_000
	const ceiling = 48 << 20 // bytes

	var buf bytes.Buffer
	if err := experiments.StreamCounterCSV(&buf, steps, 8); err != nil {
		t.Fatal(err)
	}

	// The sampler reads HeapAlloc, which counts garbage earlier tests
	// left behind (TestSampledTraceBoundedAtScale grows the heap past
	// 1.5 GB): collect it so the peak is this test's own.
	runtime.GC()
	hs := pipeline.StartHeapSampler(time.Millisecond)
	mnt, p, _ := runLiveCSV(t, buf.Bytes(), repro.LearnOptions{}, repro.LiveOptions{})
	peak := hs.Stop()

	w := p.Generator().Window()
	if got, want := mnt.Steps(), int64(steps-w+1); got != want {
		t.Errorf("maintainer consumed %d steps, want %d", got, want)
	}
	if mnt.Version() == 0 || mnt.Model() == nil {
		t.Fatal("no model maintained")
	}
	if mnt.Version() > 16 {
		t.Errorf("%d versions over a periodic stream; fast path not engaging", mnt.Version())
	}
	if peak > ceiling {
		t.Errorf("peak live heap %d bytes (%.1f MB) exceeds the %d MB streaming ceiling",
			peak, float64(peak)/(1<<20), ceiling>>20)
	}

	src, err := trace.NewCSVSource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := repro.LearnSource(src, repro.LearnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if bs, ls := batch.Automaton.String(), mnt.Model().String(); bs != ls {
		t.Errorf("live model diverged from batch over 1M steps:\nlive:\n%s\nbatch:\n%s", ls, bs)
	}
	t.Logf("peak live heap %.1f MB for %d observations (%d versions, %d states)",
		float64(peak)/(1<<20), steps, mnt.Version(), mnt.Model().NumStates())
}
