package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/learn"
	"repro/internal/live"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// TestLearnEntryPointsAgree: the four learn entry points over one trace
// run the same path, so they must return byte-identical models and
// stage tables with the same stages and counter names — except runs,
// which the predicate stage records exactly when Model.P is nil.
func TestLearnEntryPointsAgree(t *testing.T) {
	tr := counterTrace(t, 60)
	entries := []struct {
		name  string
		learn func(p *Pipeline) (*Model, error)
	}{
		{"Learn", func(p *Pipeline) (*Model, error) { return p.Learn(tr) }},
		{"LearnAll", func(p *Pipeline) (*Model, error) { return p.LearnAll([]*trace.Trace{tr}) }},
		{"LearnSource", func(p *Pipeline) (*Model, error) { return p.LearnSource(trace.NewTraceSource(tr)) }},
		{"LearnSources", func(p *Pipeline) (*Model, error) {
			return p.LearnSources([]trace.Source{trace.NewTraceSource(tr)})
		}},
	}
	stageNames := func(m *Model) []string {
		var out []string
		for _, st := range m.Stages {
			out = append(out, st.Name+":")
			for _, c := range st.Counters {
				if c.Name != "runs" {
					out = append(out, c.Name)
				}
			}
		}
		return out
	}
	var wantBytes []byte
	var wantNames []string
	for _, e := range entries {
		m, err := e.learn(testPipeline(t, tr.Schema()))
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		var buf bytes.Buffer
		if err := WriteModel(&buf, m); err != nil {
			t.Fatal(err)
		}
		names := stageNames(m)
		if wantBytes == nil {
			wantBytes, wantNames = buf.Bytes(), names
		} else {
			if !bytes.Equal(buf.Bytes(), wantBytes) {
				t.Errorf("%s model differs from Learn's:\n%s\nwant:\n%s", e.name, buf.Bytes(), wantBytes)
			}
			if !slices.Equal(names, wantNames) {
				t.Errorf("%s stage counters %v, want %v", e.name, names, wantNames)
			}
		}
		hasRuns := false
		for _, st := range m.Stages {
			if st.Name == "predicate" {
				for _, c := range st.Counters {
					hasRuns = hasRuns || c.Name == "runs"
				}
			}
		}
		if hasRuns != (m.P == nil) {
			t.Errorf("%s: runs counter present = %v with |P| = %d", e.name, hasRuns, len(m.P))
		}
		if m.P != nil && len(m.P) != tr.Len()+1-m.pipeline.gen.Window() {
			t.Errorf("%s: |P| = %d, want one symbol per window", e.name, len(m.P))
		}
	}
	for _, want := range []string{"observations", "peak_heap", "sat_propagations"} {
		if !slices.Contains(wantNames, want) {
			t.Errorf("stage counters %v lack %s", wantNames, want)
		}
	}
}

// countingSource is an IDSource over an in-memory trace that counts
// which of its read methods the windower calls. NextID reads through
// the trace directly, never through Next. onID, when set, runs before
// each NextID.
type countingSource struct {
	src     *trace.TraceSource
	next    int
	nextIDs int
	onID    func(n int)
}

func (s *countingSource) Schema() *trace.Schema { return s.src.Schema() }

func (s *countingSource) Next() (trace.Observation, error) {
	s.next++
	return s.src.Next()
}

func (s *countingSource) NextID(in *trace.Interner) (trace.ObsID, error) {
	s.nextIDs++
	if s.onID != nil {
		s.onID(s.nextIDs)
	}
	obs, err := s.src.Next()
	if err != nil {
		return 0, err
	}
	return in.Intern(obs), nil
}

// TestContextKeepsIDSource: a run with a Context must still read an
// IDSource through NextID only (the raw-record id cache), on every
// streaming entry point, and cancelling it mid-stream must still stop
// the run in the predicate stage.
func TestContextKeepsIDSource(t *testing.T) {
	tr := counterTrace(t, 2000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, err := NewPipeline(tr.Schema(), Options{Context: ctx, Learn: learn.Options{Segmented: true}})
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, src *countingSource) {
		t.Helper()
		if src.next != 0 || src.nextIDs != tr.Len()+1 {
			t.Errorf("%s: %d Next and %d NextID calls, want 0 and %d", name, src.next, src.nextIDs, tr.Len()+1)
		}
	}
	newSrc := func() *countingSource { return &countingSource{src: trace.NewTraceSource(tr)} }

	src := newSrc()
	m, err := p.LearnSource(src)
	if err != nil {
		t.Fatal(err)
	}
	check("LearnSource", src)

	src = newSrc()
	if v, err := m.CheckSource(src); err != nil || v != nil {
		t.Fatalf("CheckSource: violation %v, err %v", v, err)
	}
	check("CheckSource", src)

	mnt, err := p.NewMaintainer(live.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src = newSrc()
	if err := p.MaintainSource(src, mnt); err != nil {
		t.Fatal(err)
	}
	check("MaintainSource", src)

	src = newSrc()
	src.onID = func(n int) {
		if n == 1000 {
			cancel()
		}
	}
	_, err = p.LearnSource(src)
	if err == nil || !strings.Contains(err.Error(), "core: interrupted at stage predicate") || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled LearnSource: err = %v, want an interruption in the predicate stage", err)
	}
	if src.nextIDs >= tr.Len() {
		t.Errorf("cancelled run read %d of %d observations", src.nextIDs, tr.Len())
	}
}

// TestStageCountersOnTraceSpan: each stage closes its trace span with
// exactly the counters of its stage-table row.
func TestStageCountersOnTraceSpan(t *testing.T) {
	tr := counterTrace(t, 60)
	var out bytes.Buffer
	tracer := pipeline.NewTracer(&out)
	tel := &pipeline.Telemetry{Tracer: tracer, Registry: pipeline.NewRegistry()}
	p, err := NewPipeline(tr.Schema(), Options{Telemetry: tel, Learn: learn.Options{Segmented: true}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Learn(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	type event struct {
		T     string           `json:"t"`
		ID    uint64           `json:"id"`
		Name  string           `json:"name"`
		Attrs map[string]int64 `json:"attrs"`
	}
	stageOf := map[uint64]string{}
	spans := map[string]map[string]int64{}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var ev event
		if json.Unmarshal([]byte(line), &ev) != nil {
			continue // header, rollups and non-integer attributes
		}
		switch {
		case ev.T == "start" && (ev.Name == "predicate" || ev.Name == "model"):
			stageOf[ev.ID] = ev.Name
		case ev.T == "end" && stageOf[ev.ID] != "":
			spans[stageOf[ev.ID]] = ev.Attrs
		}
	}
	for _, st := range m.Stages {
		want := map[string]int64{}
		for _, c := range st.Counters {
			want[c.Name] = c.Value
		}
		if got := spans[st.Name]; !maps.Equal(got, want) {
			t.Errorf("stage %s: trace span attrs %v, stage table %v", st.Name, got, want)
		}
	}
}
