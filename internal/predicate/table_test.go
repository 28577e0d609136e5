package predicate

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/systems/integrator"
	"repro/internal/systems/serial"
	"repro/internal/systems/usbxhci"
	"repro/internal/trace"
)

// referenceRuns is SequenceSource without the transition table: every
// window resolves through streamWindow.
func referenceRuns(g *Generator, src trace.Source) ([]Run, error) {
	var runs []Run
	ids := make([]trace.ObsID, 0, g.w)
	nextID := g.nextIDFunc(src)
	for {
		id, err := nextID()
		if err == io.EOF {
			return runs, nil
		}
		if err != nil {
			return nil, err
		}
		var full bool
		if ids, full = slide(ids, g.w, id); !full {
			continue
		}
		m, err := g.streamWindow(ids)
		if err != nil {
			return nil, err
		}
		if n := len(runs); n > 0 && runs[n-1].Pred == m.p {
			runs[n-1].Count++
		} else {
			runs = append(runs, Run{Pred: m.p, Count: 1})
		}
	}
}

func collectRuns(g *Generator, src trace.Source) ([]Run, error) {
	var runs []Run
	err := g.SequenceSource(src, func(r Run) error {
		runs = append(runs, r)
		return nil
	})
	return runs, err
}

// tableTraces are the differential corpus: an integer, a mixed and an
// event schema, each with a second trace of the same schema that
// shares some windows with the first and adds new ones.
func tableTraces(t *testing.T) map[string][2]*trace.Trace {
	t.Helper()
	run := func(tr *trace.Trace, err error) *trace.Trace {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	ic := integrator.DefaultConfig()
	ic.Observations = 3000
	ic2 := ic
	ic2.Seed = 8
	sw := serial.DefaultWorkload()
	sw2 := sw
	sw2.Seed = 2
	ew := usbxhci.DefaultEndpointWorkload()
	ew2 := ew
	ew2.Bursts, ew2.ErrorEvery = 20, 4
	return map[string][2]*trace.Trace{
		"integer": {run(ic.Run()), run(ic2.Run())},
		"mixed":   {run(sw.Run()), run(sw2.Run())},
		"event":   {run(ew.Run()), run(ew2.Run())},
	}
}

// sources opens tr through both intern paths: the CSV IDSource, which
// interns its own raw records, and NewTraceSource.
func sources(t *testing.T, tr *trace.Trace) map[string]func() trace.Source {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return map[string]func() trace.Source{
		"csv": func() trace.Source {
			src, err := trace.NewCSVSource(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			return src
		},
		"trace": func() trace.Source { return trace.NewTraceSource(tr) },
	}
}

// TestSequenceSourceMatchesReference: SequenceSource emits the same
// runs as the table-free reference, run for run, and leaves the
// generator in the same state (snapshot and stats) — on a fresh
// generator, on the same generator's second pass (learn, then check),
// with noMemo, and on a generator restored from a snapshot.
func TestSequenceSourceMatchesReference(t *testing.T) {
	for schema, trs := range tableTraces(t) {
		open1, open2 := sources(t, trs[0]), sources(t, trs[1])
		for kind := range open1 {
			t.Run(schema+"/"+kind, func(t *testing.T) {
				pair := func(opts Options) (*Generator, *Generator) {
					a, err := NewGenerator(trs[0].Schema(), opts)
					if err != nil {
						t.Fatal(err)
					}
					b, _ := NewGenerator(trs[0].Schema(), opts)
					return a, b
				}
				same := func(step string, a, b *Generator, open func() trace.Source) {
					t.Helper()
					got, err := collectRuns(a, open())
					if err != nil {
						t.Fatalf("%s: %v", step, err)
					}
					want, err := referenceRuns(b, open())
					if err != nil {
						t.Fatalf("%s: reference: %v", step, err)
					}
					if len(got) != len(want) {
						t.Fatalf("%s: %d runs, reference %d", step, len(got), len(want))
					}
					for i := range got {
						if got[i].Pred.Key != want[i].Pred.Key || got[i].Count != want[i].Count {
							t.Fatalf("%s: run %d is %q×%d, reference %q×%d", step, i,
								got[i].Pred.Key, got[i].Count, want[i].Pred.Key, want[i].Count)
						}
					}
					if sa, sb := a.Snapshot(), b.Snapshot(); !reflect.DeepEqual(sa, sb) {
						t.Fatalf("%s: generator state differs from the reference's:\n%+v\n%+v", step, sa.Stats, sb.Stats)
					}
				}

				a, b := pair(Options{})
				same("learn", a, b, open1[kind])
				same("check", a, b, open1[kind])
				snap := a.Snapshot()
				same("second trace", a, b, open2[kind])

				ra, rb := pair(Options{})
				if _, err := ra.Restore(snap); err != nil {
					t.Fatal(err)
				}
				if _, err := rb.Restore(snap); err != nil {
					t.Fatal(err)
				}
				same("restored, second trace", ra, rb, open2[kind])
				same("restored, first trace", ra, rb, open1[kind])

				na, nb := pair(Options{noMemo: true})
				same("nomemo", na, nb, open1[kind])
				if st := na.Stats(); st.MemoHits != 0 || st.UniqueWindows != st.Windows {
					t.Fatalf("nomemo: stats %+v, want every window rebuilt", st)
				}
			})
		}
	}
}

// TestSequenceSourceCountersAtEmit: whenever emit runs, and whenever
// the pass returns, Stats and the registry counters include every
// window the pass has resolved, table hits included. At an emit that is
// every window of the runs emitted so far plus the one that ended the
// last run (none at the final emit); at a return, every observation
// read but the first w−1.
func TestSequenceSourceCountersAtEmit(t *testing.T) {
	tr := periodicTrace(t, 600, 12)
	w := DefaultWindow(tr.Schema())
	total := tr.Len() + 1 - w
	stop := errors.New("stop")
	for _, noMemo := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		reg := pipeline.NewRegistry()
		g, err := NewGenerator(tr.Schema(), Options{noMemo: noMemo, Context: ctx})
		if err != nil {
			t.Fatal(err)
		}
		g.SetTelemetry(&pipeline.Telemetry{Registry: reg}, 0)
		windows := 0
		exact := func(when string, want int) {
			t.Helper()
			st := g.Stats()
			if st.Windows != want || st.MemoHits+st.UniqueWindows != st.Windows {
				t.Fatalf("nomemo=%v %s: stats %+v, want %d windows", noMemo, when, st, want)
			}
			c := reg.CounterValues()
			if c["predicate_windows_total"] != int64(st.Windows) || c["predicate_memo_hits_total"] != int64(st.MemoHits) {
				t.Fatalf("nomemo=%v %s: registry %v, stats %+v", noMemo, when, c, st)
			}
		}
		// Each pass's source stops it differently: the end of the
		// trace (the first pass synthesises, the second resolves all
		// but its first few windows from the table), an emit error at
		// the tenth run, a source error, and a cancelled context.
		for _, end := range []string{"eof", "eof", "emit", "source", "cancel"} {
			src := &countingSource{src: trace.NewTraceSource(tr), failAt: -1}
			if end == "source" {
				src.failAt = 300
			}
			emitted, emits := 0, 0
			err := g.SequenceSource(src, func(r Run) error {
				emitted += r.Count
				emits++
				exact(end+" pass, at an emit", windows+min(emitted+1, total))
				switch {
				case emits < 10:
				case end == "emit":
					return stop
				case end == "cancel":
					cancel()
				}
				return nil
			})
			switch end {
			case "eof":
				if err != nil {
					t.Fatal(err)
				}
			case "emit":
				if !errors.Is(err, stop) {
					t.Fatalf("got %v, want the emit error", err)
				}
			case "source":
				if !errors.Is(err, errSourceFailed) {
					t.Fatalf("got %v, want the source error", err)
				}
			case "cancel":
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("got %v, want context.Canceled", err)
				}
			}
			windows += src.read + 1 - w
			exact(end+" pass, at return", windows)
		}
	}
}

// TestSequenceSourceCountersWhileReading: the registry counters, which
// monitor's /healthz and the obs_per_sec gauge watch for progress,
// include every window resolved so far each time the pass reads its
// source, also when the whole trace is one run and emit is called only
// at its end — on the pass that synthesises the window and on the one
// that resolves all but its first two windows from the table.
func TestSequenceSourceCountersWhileReading(t *testing.T) {
	tr := intTrace(t, make([]int64, 1000)...)
	reg := pipeline.NewRegistry()
	g, err := NewGenerator(tr.Schema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	g.SetTelemetry(&pipeline.Telemetry{Registry: reg}, 0)
	windows, w := reg.Counter("predicate_windows_total"), g.Window()
	base := int64(0)
	for _, step := range []string{"learn", "check"} {
		src := &countingSource{src: trace.NewTraceSource(tr), failAt: -1, onNext: func(read int) {
			if got, want := windows.Value(), base+int64(max(read+1-w, 0)); got != want {
				t.Fatalf("%s: predicate_windows_total = %d after %d observations, want %d", step, got, read, want)
			}
		}}
		emits := 0
		if err := g.SequenceSource(src, func(Run) error { emits++; return nil }); err != nil {
			t.Fatal(err)
		}
		if emits != 1 {
			t.Fatalf("%s: %d emits, want one run", step, emits)
		}
		base += int64(tr.Len() + 1 - w)
	}
	if st := g.Stats(); st.Windows != int(base) || st.MemoHits != st.Windows-1 {
		t.Fatalf("stats %+v, want %d windows, one synthesised", st, base)
	}
}

var errSourceFailed = errors.New("source failed")

// countingSource counts the observations read from src, calls onNext
// (when set) with that count before each read, and fails at
// observation failAt (never when negative).
type countingSource struct {
	src    trace.Source
	read   int
	failAt int
	onNext func(read int)
}

func (s *countingSource) Schema() *trace.Schema { return s.src.Schema() }

func (s *countingSource) Next() (trace.Observation, error) {
	if s.onNext != nil {
		s.onNext(s.read)
	}
	if s.read == s.failAt {
		return nil, errSourceFailed
	}
	obs, err := s.src.Next()
	if err == nil {
		s.read++
	}
	return obs, err
}

// TestTransitionHitNoAllocs pins the table's hot path: once a pass has
// seen each transition of a periodic trace, the remaining windows
// allocate nothing, so a pass over four times the trace allocates
// exactly what a pass over the trace does. Period 4 ends a run at every
// window; period 50 folds long runs.
func TestTransitionHitNoAllocs(t *testing.T) {
	for _, period := range []int{4, 50} {
		short, long := periodicTrace(t, 1000, period), periodicTrace(t, 4000, period)
		g, err := NewGenerator(short.Schema(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Sequence(short); err != nil {
			t.Fatal(err)
		}
		pass := func(tr *trace.Trace) func() {
			return func() {
				if err := g.SequenceSource(trace.NewTraceSource(tr), func(Run) error { return nil }); err != nil {
					t.Fatal(err)
				}
			}
		}
		a, b := testing.AllocsPerRun(20, pass(short)), testing.AllocsPerRun(20, pass(long))
		if a != b {
			t.Errorf("period %d: a pass allocates %.0f objects over %d observations and %.0f over %d; table hits must not allocate",
				period, a, short.Len(), b, long.Len())
		}
	}
}
