package pipeline

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestSpanRecordsStage: End returns the stage-table row (name, wall and
// CPU time, counters) and closes the stage's trace span with the same
// counters as its end attributes.
func TestSpanRecordsStage(t *testing.T) {
	var out bytes.Buffer
	tr := NewTracer(&out)
	run := tr.Start(0, "run")
	st := StartStage(tr, run, "predicate")
	if st.Span == 0 {
		t.Fatal("stage opened no trace span")
	}
	time.Sleep(2 * time.Millisecond)
	sm := st.End(Counter{Name: "windows", Value: 10}, Counter{Name: "memo_hits", Value: 7})
	tr.End(run)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	if sm.Name != "predicate" {
		t.Fatalf("stage name = %q, want predicate", sm.Name)
	}
	if sm.Wall <= 0 {
		t.Errorf("wall time not recorded: %v", sm.Wall)
	}
	if sm.CPU < 0 {
		t.Errorf("negative CPU time: %v", sm.CPU)
	}
	if got := sm.Counter("windows"); got != 10 {
		t.Errorf("windows counter = %d, want 10", got)
	}
	if got := sm.Counter("memo_hits"); got != 7 {
		t.Errorf("memo_hits counter = %d, want 7", got)
	}
	if got := sm.Counter("missing"); got != 0 {
		t.Errorf("missing counter = %d, want 0", got)
	}

	var end string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, `{"t":"end"`) && strings.Contains(line, fmt.Sprintf(`"id":%d,`, st.Span)) {
			end = line
		}
	}
	if !strings.HasSuffix(end, `"attrs":{"windows":10,"memo_hits":7}}`) {
		t.Errorf("stage span end = %q, want the counters as attributes", end)
	}

	// Without a tracer the stage still measures and returns its row.
	if sm := StartStage(nil, 0, "model").End(Counter{Name: "states", Value: 3}); sm.Name != "model" || sm.Counter("states") != 3 {
		t.Errorf("untraced stage row = %+v", sm)
	}
}

// TestFormatListsCountersInOrder: Format prints a stage row's counters in
// the order End was given them.
func TestFormatListsCountersInOrder(t *testing.T) {
	sm := StartStage(nil, 0, "model").End(Counter{Name: "states", Value: 3}, Counter{Name: "transitions", Value: 5})
	s := Format([]StageMetrics{sm})
	if !strings.Contains(s, "model") || !strings.Contains(s, "states=3") || !strings.Contains(s, "transitions=5") {
		t.Errorf("Format output missing fields:\n%s", s)
	}
	if strings.Index(s, "states=3") > strings.Index(s, "transitions=5") {
		t.Errorf("counters out of insertion order:\n%s", s)
	}
}

func TestCPUTimeMonotone(t *testing.T) {
	a := CPUTime()
	// Burn a little CPU so the second reading can only be ≥ the first.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i
	}
	_ = x
	b := CPUTime()
	if b < a {
		t.Errorf("CPUTime went backwards: %v then %v", a, b)
	}
}

func TestFormatGolden(t *testing.T) {
	stages := []StageMetrics{
		{Name: "predicate", Wall: 1500 * time.Microsecond, CPU: 4 * time.Millisecond,
			Counters: []Counter{{Name: "windows", Value: 10}, {Name: "memo_hits", Value: 7}}},
		{Name: "model", Wall: 2 * time.Second, CPU: 0},
	}
	got := Format(stages)
	want := "predicate    wall      1.5ms  cpu        4ms  windows=10  memo_hits=7\n" +
		"model        wall         2s  cpu         0s\n"
	if got != want {
		t.Errorf("Format output drifted:\ngot:\n%swant:\n%s", got, want)
	}
}

func TestHeapSamplerStopIdempotent(t *testing.T) {
	h := StartHeapSampler(time.Millisecond)
	// Allocate something so the sampler has a non-zero heap to see.
	sink := make([]byte, 1<<20)
	_ = sink
	time.Sleep(5 * time.Millisecond)
	first := h.Stop()
	if first == 0 {
		t.Fatal("peak heap sampled as 0")
	}
	second := h.Stop() // must not panic (double close) and returns the cached peak
	if second != first {
		t.Errorf("second Stop = %d, want cached %d", second, first)
	}
	if h.Current() == 0 {
		t.Error("Current() = 0 after final sample")
	}
	if h.Peak() < h.Current() {
		t.Errorf("peak %d < current %d", h.Peak(), h.Current())
	}
}
