package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/learn"
	"repro/internal/trace"
)

// FuzzReadModel feeds arbitrary bytes to ReadModel, the loader behind
// monitor -model. Malformed input must come back as a model error,
// never a panic or a runaway allocation; an accepted model, once
// re-saved by WriteModel, must read back and re-save to identical
// bytes.
func FuzzReadModel(f *testing.F) {
	for _, m := range exampleModels(f) {
		f.Add(m)
	}
	for _, src := range badCountModels {
		f.Add([]byte(src))
	}
	f.Add([]byte(badCountHead + "alphabet 0\ntransitions 0\nseeds 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip()
		}
		m, err := ReadModel(bytes.NewReader(data))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "model: ") {
				t.Fatalf("error %q lacks the model: prefix", err)
			}
			return
		}
		first := saveModel(t, m)
		again, err := ReadModel(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-saved model does not load: %v\n%s", err, first)
		}
		if second := saveModel(t, again); !bytes.Equal(first, second) {
			t.Fatalf("re-save is not a fixed point:\nfirst:\n%s\nsecond:\n%s", first, second)
		}
	})
}

// exampleModels learns every trace under examples/traces and returns
// the saved models.
func exampleModels(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, tr := range exampleTraces(tb) {
		p, err := NewPipeline(tr.Schema(), Options{Learn: learn.Options{Segmented: true}})
		if err != nil {
			tb.Fatal(err)
		}
		m, err := p.Learn(tr)
		if err != nil {
			tb.Fatalf("learning %s: %v", renderSchema(tr.Schema()), err)
		}
		out = append(out, saveModel(tb, m))
	}
	return out
}

// exampleTraces reads every trace under examples/traces.
func exampleTraces(tb testing.TB) []*trace.Trace {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "traces", "*"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no example traces (%v)", err)
	}
	var out []*trace.Trace
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			tb.Fatal(err)
		}
		var tr *trace.Trace
		switch filepath.Ext(path) {
		case ".csv":
			tr, err = trace.ReadCSV(f)
		case ".vcd":
			tr, err = trace.ReadVCD(f, nil)
		default:
			tr, err = trace.ReadEvents(f)
		}
		f.Close()
		if err != nil {
			tb.Fatalf("reading %s: %v", path, err)
		}
		out = append(out, tr)
	}
	return out
}

func saveModel(tb testing.TB, m *Model) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteModel(&buf, m); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzCheckpoint feeds arbitrary checkpoint payloads, each wrapped in a
// header whose length and hash match it, to a resumed LearnSource over
// the example trace whose schema the payload names, so mutations get
// past the file hash and reach predicate.Restore, learn.NewSeqFromState
// and the learn resume path. A corrupt checkpoint must come back as an
// error carrying its package's prefix, never as a panic or a search
// that outruns its deadline.
func FuzzCheckpoint(f *testing.F) {
	traces := map[string]*trace.Trace{}
	var first *trace.Trace
	for _, tr := range exampleTraces(f) {
		traces[renderSchema(tr.Schema())] = tr
		payloads := exampleCheckpoints(f, tr)
		for _, payload := range payloads {
			f.Add(payload)
		}
		if first == nil {
			first = tr
			f.Add(badGramCheckpoint(f, payloads[len(payloads)-1]))
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > 1<<16 {
			t.Skip()
		}
		lr, err := decodePayload(payload)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "checkpoint: ") {
				t.Fatalf("error %q lacks the checkpoint: prefix", err)
			}
			return
		}
		tr := traces[lr.State.Schema]
		if tr == nil {
			tr = first
		}
		start := time.Now()
		_, err = resumeFrom(t.TempDir(), tr, lr)
		if err != nil && !hasPackagePrefix(err) {
			t.Fatalf("error %q lacks a package prefix", err)
		}
		if d := time.Since(start); d > 20*time.Second {
			t.Fatalf("resume took %v", d)
		}
	})
}

// decodePayload wraps a checkpoint payload in a matching header and
// decodes it, as checkpoint.LoadFile would a file holding it.
func decodePayload(payload []byte) (*checkpoint.LoadResult, error) {
	sum := sha256.Sum256(payload)
	file := fmt.Appendf(nil, "t2m-checkpoint v%d sha256=%s bytes=%d\n", checkpoint.Version, hex.EncodeToString(sum[:]), len(payload))
	st, hexSum, err := checkpoint.Decode(append(file, payload...))
	if err != nil {
		return nil, err
	}
	return &checkpoint.LoadResult{State: st, SHA256: hexSum}, nil
}

// resumeFrom resumes a small, deadline-bounded streamed learn of tr
// from lr, writing any further checkpoints into dir.
func resumeFrom(dir string, tr *trace.Trace, lr *checkpoint.LoadResult) (*Model, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	p, err := NewPipeline(tr.Schema(), Options{
		Learn:      learn.Options{Segmented: true, MaxStates: 6, Timeout: 2 * time.Second},
		Context:    ctx,
		Checkpoint: checkpoint.Config{Dir: dir, Every: 1 << 20, From: lr},
	})
	if err != nil {
		return nil, err
	}
	return p.LearnSource(trace.NewTraceSource(tr))
}

// hasPackagePrefix reports whether err names the package it came from.
func hasPackagePrefix(err error) bool {
	for _, p := range []string{"checkpoint: ", "core: ", "learn: ", "predicate: "} {
		if strings.HasPrefix(err.Error(), p) {
			return true
		}
	}
	return false
}

// exampleCheckpoints returns the payloads of the ingest-phase
// checkpoints a run over tr leaves when it is cut halfway through the
// trace, and of the model-phase checkpoints a complete run leaves.
func exampleCheckpoints(tb testing.TB, tr *trace.Trace) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, cut := range []int{tr.Len() / 2, tr.Len()} {
		dir := tb.TempDir()
		p, err := NewPipeline(tr.Schema(), Options{
			Learn:      learn.Options{Segmented: true},
			Checkpoint: checkpoint.Config{Dir: dir, Every: 8},
		})
		if err != nil {
			tb.Fatal(err)
		}
		var src trace.Source = trace.NewTraceSource(tr)
		if cut < tr.Len() {
			src = &failAfter{src: src, n: cut}
		}
		_, err = p.LearnSource(src)
		if (err != nil) != (cut < tr.Len()) {
			tb.Fatalf("checkpointed run cut at %d of %d: %v", cut, tr.Len(), err)
		}
		paths, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil || len(paths) == 0 {
			tb.Fatalf("run cut at %d left no checkpoints (%v)", cut, err)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, data[bytes.IndexByte(data, '\n')+1:])
		}
	}
	return out
}

// badGramCheckpoint rewrites a model-phase checkpoint payload so that
// its learn state blocks a 12-gram at compliance length 2: blocking it
// would enumerate N^13 state paths.
func badGramCheckpoint(tb testing.TB, payload []byte) []byte {
	tb.Helper()
	lr, err := decodePayload(payload)
	if err != nil {
		tb.Fatal(err)
	}
	st := lr.State
	if st.Phase != checkpoint.PhaseModel || st.Learn == nil {
		tb.Fatalf("checkpoint is in the %s phase, want a model-phase one with learn state", st.Phase)
	}
	st.Learn.N = 5
	st.Learn.Blocked = [][]int{make([]int, 12)}
	out, err := json.Marshal(st)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// failAfter delivers n observations of src, then fails.
type failAfter struct {
	src trace.Source
	n   int
}

func (s *failAfter) Schema() *trace.Schema { return s.src.Schema() }

func (s *failAfter) Next() (trace.Observation, error) {
	if s.n == 0 {
		return nil, errors.New("source cut")
	}
	s.n--
	return s.src.Next()
}

// TestResumeRefusesRunLogLength: a checkpoint's run log must hold one
// window per observation past the first w−1 of its offset. A payload
// whose run counts were edited still matches its own hash, and resuming
// from it would learn silently from another sequence.
func TestResumeRefusesRunLogLength(t *testing.T) {
	for _, tr := range exampleTraces(t) {
		for _, payload := range exampleCheckpoints(t, tr) {
			lr, err := decodePayload(payload)
			if err != nil {
				t.Fatal(err)
			}
			lr.State.SeqRLE.Counts[0]++
			_, err = resumeFrom(t.TempDir(), tr, lr)
			if err == nil || !strings.HasPrefix(err.Error(), "core: resume: run log holds") {
				t.Fatalf("%s phase at offset %d: got %v, want a run-log length error", lr.State.Phase, lr.State.Offset, err)
			}
		}
	}
}
