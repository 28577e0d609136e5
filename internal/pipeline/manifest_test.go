package pipeline

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func sampleManifest() *Manifest {
	return &Manifest{
		Version:   ManifestVersion,
		Tool:      "t2m",
		CreatedAt: time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC).Format(time.RFC3339),
		Config:    map[string]any{"w": 3, "l": 2, "workers": 4, "portfolio": 2, "stream": true},
		Inputs:    []InputDigest{{Path: "trace.csv", SHA256: "abc", Bytes: 123, Format: "csv"}},
		Stages: []StageManifest{
			{Name: "predicate", WallNS: 1000, CPUNS: 900, Counters: map[string]int64{"windows": 10}},
			{Name: "model", WallNS: 2000, CPUNS: 1800, Counters: map[string]int64{"solver_calls": 3}},
		},
		Counters: map[string]int64{"predicate_windows_total": 10},
		Histograms: map[string]HistogramSummary{
			"solver_call_ns": {Unit: "ns", Count: 3, Sum: 300, Min: 50, Max: 200, P50: 96, P95: 192, P99: 192},
		},
		Model: &ModelManifest{States: 3, Transitions: 5, Symbols: 4, Segments: 6, SolverCalls: 3},
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := sampleManifest()
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tool != "t2m" || got.Model.States != 3 || len(got.Stages) != 2 {
		t.Fatalf("round-trip lost fields: %+v", got)
	}
	if got.Histograms["solver_call_ns"].P95 != 192 {
		t.Errorf("histogram summary lost: %+v", got.Histograms)
	}
	if got.Stages[0].Counters["windows"] != 10 {
		t.Errorf("stage counters lost: %+v", got.Stages[0])
	}
}

func TestManifestValidateRejects(t *testing.T) {
	cases := map[string]func(*Manifest){
		"wrong version": func(m *Manifest) { m.Version = 99 },
		"missing tool":  func(m *Manifest) { m.Tool = "" },
		"missing time":  func(m *Manifest) { m.CreatedAt = "" },
		"unnamed stage": func(m *Manifest) { m.Stages[0].Name = "" },
		"negative wall": func(m *Manifest) { m.Stages[1].WallNS = -1 },
		"negative count": func(m *Manifest) {
			h := m.Histograms["solver_call_ns"]
			h.Count = -1
			m.Histograms["solver_call_ns"] = h
		},
	}
	for name, mutate := range cases {
		m := sampleManifest()
		mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid manifest", name)
		}
	}
	if _, err := ReadManifest(strings.NewReader("{not json")); err == nil {
		t.Error("ReadManifest accepted malformed JSON")
	}
}

func TestManifestWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if err := sampleManifest().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := ReadManifest(f); err != nil {
		t.Fatal(err)
	}
}

func TestStageManifests(t *testing.T) {
	row := StartStage(nil, 0, "predicate").End(Counter{Name: "windows", Value: 10}, Counter{Name: "windows", Value: 5})
	rows := StageManifests([]StageMetrics{row})
	if len(rows) != 1 || rows[0].Name != "predicate" {
		t.Fatalf("rows = %+v", rows)
	}
	// Duplicate counters merge in the manifest form.
	if rows[0].Counters["windows"] != 15 {
		t.Errorf("windows = %d, want 15", rows[0].Counters["windows"])
	}
	if rows[0].WallNS < 0 {
		t.Errorf("negative wall %d", rows[0].WallNS)
	}
}

func TestFileDigest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "in.csv")
	if err := os.WriteFile(path, []byte("a,b\n1,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	d := FileDigest(path)
	if d.Bytes != 8 || len(d.SHA256) != 64 {
		t.Fatalf("digest = %+v", d)
	}
	if d2 := FileDigest(filepath.Join(t.TempDir(), "missing")); d2.SHA256 != "" || d2.Bytes != 0 {
		t.Fatalf("missing-file digest = %+v", d2)
	}
}
