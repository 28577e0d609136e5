package trace

import (
	"fmt"
	"io"
	"strings"
	"testing"
)

// TestFtraceLongLine: a record past bufio.Scanner's old 1 MiB token
// limit decodes in batch exactly as it streams.
func TestFtraceLongLine(t *testing.T) {
	long := strings.Repeat("x", 2<<20)
	log := "a-1 [000] d..3 1.000001: sched_switch: short\n" +
		"a-1 [000] d..3 1.000002: sched_waking: " + long + "\n" +
		"b-2 [001] 1.000003: sched_switch: short\n"
	evs, err := ParseFtrace(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 || evs[1].Detail != long {
		t.Fatalf("ParseFtrace: %d events, want 3 with the long detail intact", len(evs))
	}
	batch, _ := FtraceToTrace(evs, "a-1", nil).Events()
	tr, err := Collect(NewFtraceSource(strings.NewReader(log), "a-1", nil))
	if err != nil {
		t.Fatal(err)
	}
	stream, _ := tr.Events()
	if strings.Join(batch, " ") != "sched_switch sched_waking" || strings.Join(stream, " ") != strings.Join(batch, " ") {
		t.Fatalf("batch events %q, stream %q", batch, stream)
	}
}

// TestFtraceSourceAllocs: once every kept event name has been seen, a
// line of another task and a kept line alike decode without
// allocating, over both the zero-copy and the buffered reader.
func TestFtraceSourceAllocs(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 2000; i++ {
		for j := 0; j < 8; j++ {
			fmt.Fprintf(&b, "pi_stress-%d  [00%d] d..3  %d.%06d: sched_switch: tick=%d\n", 2314+j%3, j%4, i, j, i)
		}
		fmt.Fprintf(&b, "rt_thread-1  [000] d..3  %d.%06d: %s: tick=%d\n", i, 9, []string{"sched_waking", "sched_switch"}[i%2], i)
	}
	log := b.String()
	for name, r := range map[string]io.Reader{
		"bytes":  NewBytes([]byte(log)),
		"reader": strings.NewReader(log),
	} {
		src := NewFtraceSource(r, "rt_thread-1", nil)
		for i := 0; i < 2; i++ {
			if _, err := src.Next(); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(1000, func() {
			if _, err := src.Next(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: FtraceSource.Next allocates %.1f times per kept event, want 0", name, allocs)
		}
	}
}
