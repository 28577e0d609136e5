package repro_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/trace"
)

// errKilled is the fault the cut source injects: it stands in for a
// crash (power loss, OOM kill) at an arbitrary observation.
var errKilled = errors.New("simulated crash")

// cutSource delivers the underlying stream faithfully for limit
// observations, then fails. after, if non-nil, runs once at the cut
// instead of failing (used to cancel a context mid-run).
type cutSource struct {
	src   repro.Source
	limit int
	seen  int
	after func() error
}

func (c *cutSource) Schema() *trace.Schema { return c.src.Schema() }

func (c *cutSource) Next() (trace.Observation, error) {
	if c.seen >= c.limit {
		if c.after != nil {
			if err := c.after(); err != nil {
				return nil, err
			}
			c.after = nil
			c.limit = int(^uint(0) >> 1)
			return c.Next()
		}
		return nil, errKilled
	}
	c.seen++
	return c.src.Next()
}

// truncSource ends the stream early with a clean EOF — a shorter
// input, as opposed to cutSource's crash.
type truncSource struct {
	src   repro.Source
	limit int
	seen  int
}

func (s *truncSource) Schema() *trace.Schema { return s.src.Schema() }

func (s *truncSource) Next() (trace.Observation, error) {
	if s.seen >= s.limit {
		return nil, io.EOF
	}
	s.seen++
	return s.src.Next()
}

// saveBytes renders the model file — the byte-identity yardstick for
// every resume test.
func saveBytes(t *testing.T, m *repro.Model) string {
	t.Helper()
	var buf bytes.Buffer
	if err := repro.SaveModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestResumeMatchesCleanGolden is the ISSUE's acceptance criterion:
// for every example trace, kill the run at several observation counts,
// resume from the surviving checkpoint, and require a model file
// byte-identical to an uninterrupted run — with the serial solver
// (workers=1) and with a four-member portfolio on four workers.
func TestResumeMatchesCleanGolden(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("examples", "traces", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no traces under examples/traces")
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				base := repro.LearnOptions{Workers: workers}
				if workers > 1 {
					base.Portfolio = workers
				}
				clean := func() string {
					src, closeSrc := openExampleSource(t, path)
					defer closeSrc()
					m, err := repro.LearnSource(src, base)
					if err != nil {
						t.Fatal(err)
					}
					return saveBytes(t, m)
				}()

				for _, cut := range []int{12, 25} {
					dir := t.TempDir()
					opts := base
					opts.CheckpointDir = dir
					opts.CheckpointEvery = 8

					// The killed run must fail, but its checkpoint
					// directory must hold a valid snapshot.
					src, closeSrc := openExampleSource(t, path)
					_, err := repro.LearnSource(&cutSource{src: src, limit: cut}, opts)
					closeSrc()
					if !errors.Is(err, errKilled) {
						t.Fatalf("cut at %d: err = %v, want the injected crash", cut, err)
					}
					info, err := repro.InspectCheckpoint(dir)
					if err != nil {
						t.Fatalf("cut at %d left no loadable checkpoint: %v", cut, err)
					}
					if info.Offset <= 0 || info.Offset > int64(cut) {
						t.Fatalf("cut at %d: checkpoint offset %d out of range", cut, info.Offset)
					}

					src, closeSrc = openExampleSource(t, path)
					opts.Resume = true
					resumed, err := repro.LearnSource(src, opts)
					closeSrc()
					if err != nil {
						t.Fatalf("resume after cut at %d: %v", cut, err)
					}
					if got := saveBytes(t, resumed); got != clean {
						t.Errorf("cut at %d: resumed model differs from clean run\nclean:\n%s\nresumed:\n%s", cut, clean, got)
					}
				}
			})
		}
	}
}

// TestResumeFromModelPhase resumes from a checkpoint taken after
// ingestion finished (during the solver search): the driver must
// fast-forward the whole input, verify its digest, and reach the same
// model without redoing ingestion state from scratch.
func TestResumeFromModelPhase(t *testing.T) {
	path := filepath.Join("examples", "traces", "counter.csv")
	dir := t.TempDir()
	opts := repro.LearnOptions{CheckpointDir: dir, CheckpointEvery: 8}

	src, closeSrc := openExampleSource(t, path)
	clean, err := repro.LearnSource(src, opts)
	closeSrc()
	if err != nil {
		t.Fatal(err)
	}
	info, err := repro.InspectCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Phase != "model" {
		t.Fatalf("newest checkpoint after a complete run is %q, want model phase", info.Phase)
	}

	src, closeSrc = openExampleSource(t, path)
	opts.Resume = true
	resumed, err := repro.LearnSource(src, opts)
	closeSrc()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := saveBytes(t, clean), saveBytes(t, resumed); a != b {
		t.Errorf("model-phase resume diverged\nclean:\n%s\nresumed:\n%s", a, b)
	}
}

// TestInterruptLeavesResumableCheckpoint cancels the run context mid-
// ingestion (the signal path of cmd/t2m), and requires: a non-nil
// "interrupted" error, a valid checkpoint on disk, and a resumed model
// byte-identical to an uninterrupted run.
func TestInterruptLeavesResumableCheckpoint(t *testing.T) {
	path := filepath.Join("examples", "traces", "counter.csv")

	clean := func() string {
		src, closeSrc := openExampleSource(t, path)
		defer closeSrc()
		m, err := repro.LearnSource(src, repro.LearnOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return saveBytes(t, m)
	}()

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := repro.LearnOptions{Context: ctx, CheckpointDir: dir, CheckpointEvery: 8}

	src, closeSrc := openExampleSource(t, path)
	// Cancel after 20 observations; the source keeps delivering, so the
	// stop happens at the pipeline's own cancellation point.
	_, err := repro.LearnSource(&cutSource{src: src, limit: 20, after: func() error { cancel(); return nil }}, opts)
	closeSrc()
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	if !strings.Contains(err.Error(), "interrupted at stage") {
		t.Errorf("err = %q, want it to name the interrupted stage", err)
	}
	if _, err := repro.InspectCheckpoint(dir); err != nil {
		t.Fatalf("interrupt left no loadable checkpoint: %v", err)
	}

	src, closeSrc = openExampleSource(t, path)
	resumed, err := repro.LearnSource(src, repro.LearnOptions{CheckpointDir: dir, CheckpointEvery: 8, Resume: true})
	closeSrc()
	if err != nil {
		t.Fatal(err)
	}
	if got := saveBytes(t, resumed); got != clean {
		t.Errorf("model resumed after interrupt differs from clean run\nclean:\n%s\nresumed:\n%s", clean, got)
	}
}

// TestResumeRefusesChangedInput: a checkpoint must not silently
// continue over a different input. A resume source shorter than the
// checkpointed offset, or with different content, is rejected.
func TestResumeRefusesChangedInput(t *testing.T) {
	path := filepath.Join("examples", "traces", "counter.csv")
	dir := t.TempDir()
	opts := repro.LearnOptions{CheckpointDir: dir, CheckpointEvery: 8}

	src, closeSrc := openExampleSource(t, path)
	_, err := repro.LearnSource(&cutSource{src: src, limit: 20}, opts)
	closeSrc()
	if !errors.Is(err, errKilled) {
		t.Fatal(err)
	}
	info, err := repro.InspectCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Shorter input: EOF before the checkpointed offset.
	src, closeSrc = openExampleSource(t, path)
	opts.Resume = true
	_, err = repro.LearnSource(&truncSource{src: src, limit: int(info.Offset) - 1}, opts)
	closeSrc()
	if err == nil || !strings.Contains(err.Error(), "input changed") {
		t.Errorf("short input: err = %v, want an input-changed rejection", err)
	}

	// Same length and schema, different observations: the running
	// digest over the fast-forwarded prefix must mismatch.
	other, err := trace.NewCSVSource(strings.NewReader(mutatedCounterCSV(t, path)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = repro.LearnSource(other, opts)
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Errorf("mutated input: err = %v, want a digest mismatch", err)
	}
}

// mutatedCounterCSV returns the counter trace with one early value
// changed — same schema, same length, different content.
func mutatedCounterCSV(t *testing.T, path string) string {
	t.Helper()
	tr := readExampleTrace(t, path)
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	if len(lines) < 5 {
		t.Fatal("counter trace unexpectedly short")
	}
	if lines[3] == lines[4] {
		t.Fatal("mutation would be a no-op")
	}
	lines[3], lines[4] = lines[4], lines[3]
	return strings.Join(lines, "\n")
}
