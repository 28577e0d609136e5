package trace

import (
	"bytes"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
)

// FuzzVCD feeds arbitrary bytes to the VCD header and change-dump
// parsers. Malformed input must come back as an error, never a panic;
// a successful parse must yield a self-consistent trace.
func FuzzVCD(f *testing.F) {
	f.Add([]byte(sampleVCD))
	f.Add([]byte("$enddefinitions $end\n#0\n"))
	f.Add([]byte("$scope module m $end\n$var wire 1 ! a $end\n"))
	f.Add([]byte("$var wire 1 ! a $end\n$enddefinitions $end\nx!\nb101 !\n#5\n1!"))
	f.Add([]byte("$timescale"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip()
		}
		sigs, err := VCDSignals(bytes.NewReader(data))
		if err == nil {
			for _, sg := range sigs {
				if sg.Name == "" {
					t.Fatalf("VCDSignals returned unnamed signal %+v", sg)
				}
			}
		}
		tr, err := ReadVCD(bytes.NewReader(data), nil)
		if err == nil && tr != nil {
			if tr.Len() > 0 && tr.Schema().Len() == 0 {
				t.Fatalf("trace with %d observations but empty schema", tr.Len())
			}
		}
		// A signal filter exercises selectSignals' matching paths.
		_, _ = ReadVCD(bytes.NewReader(data), []string{"top.clk", "no.such.signal"})
	})
}

// ftraceSeeds are rtlinux-style log lines plus the shapes the
// tokenizer must leave to the reference parser: signed CPUs, tabs,
// exponent, hex and trailing-garbage timestamps, Unicode separators,
// a missing flags column, too few columns, a timestamp past float64's
// range, CRLF and comments.
var ftraceSeeds = []string{
	"# tracer: nop\n#\n" +
		"pi_stress-2314  [000] d..3  107.111195: sched_switch: tick=107111\n" +
		"rt_thread-1  [000] d..3  107.111207: sched_waking: tick=107112\n" +
		"pi_stress-2314  [000] d..3  107.111300: sched_set_state_runnable: tick=107113\n",
	"task-1 [+5] d..3 1.5: ev: x\n",
	"task-1\t[000]\td..3\t1.5:\tev:\tx\t\ty\n",
	"task-1 [000] d..3 1e-3: ev: x\n",
	"task-1 [000] d..3 0x1p-4: ev: x\n",
	"task-1 [000] d..3 1.5abc: ev: x\n",
	"task-1 [000] d..3 1.5: ev: x\n",
	"task-1\u00a0[000] d..3 1.5: ev: x\n",
	"task-1 [000]\u00a0d..3 1.5: ev: x y\u00a0z\n",
	"task-1 [000] d..3 1.5: ev:\u0085x\u00a0 y\n",
	"task-1 [000] 1.5: ev: x\n",
	"task-1 [000] 1.5:\n",
	"task-1 [000] d..3 " + strings.Repeat("9", 309) + ".5: ev: x\n",
	"task-1 [000] d..3 1.5: ev: x\r\ntask-2 [001] 2.5: ev: y\r\n",
	"\n  # comment\ntask-1 [000] d..3 1.5: : x\ntask-1 [00] d..3 .5: ev: x\n",
}

// FuzzFtrace checks the ftrace tokenizer against the fmt-based
// reference parser line by line, and the batch decoder (ParseFtrace +
// FtraceToTrace) against the streaming one (FtraceSource): the same
// events and the same error, keeping every task or the first line's.
func FuzzFtrace(f *testing.F) {
	for _, s := range ftraceSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip()
		}
		for _, raw := range bytes.Split(data, []byte("\n")) {
			line := trimSpace(raw)
			if len(line) == 0 || line[0] == '#' {
				continue
			}
			var c ftraceCols
			if !c.split(line) {
				continue
			}
			want, err := parseFtraceLine(string(line))
			if err != nil {
				t.Fatalf("tokenizer accepted %q; reference rejects it: %v", line, err)
			}
			if got := c.event(); !sameFtraceEvent(got, want) {
				t.Fatalf("tokenizer: %q gives %+v, reference %+v", line, got, want)
			}
		}

		tasks := []string{""}
		first := ftraceLines{ln: newLiner(NewBytes(data))}
		if line, err := first.next(); err == nil {
			tasks = append(tasks, strings.Fields(string(line))[0])
		}
		for _, task := range tasks {
			evs, batchErr := ParseFtrace(bytes.NewReader(data))
			var batch []string
			var kept []FtraceEvent
			if batchErr == nil {
				batch, _ = FtraceToTrace(evs, task, nil).Events()
				FtraceToTrace(evs, task, func(ev FtraceEvent) string {
					kept = append(kept, ev)
					return ""
				})
			}
			tr, streamErr := Collect(NewFtraceSource(NewBytes(data), task, nil))
			sameErr(t, "task "+task, batchErr, streamErr)
			if streamErr == nil {
				stream, _ := tr.Events()
				if !slices.Equal(batch, stream) {
					t.Fatalf("task %q: batch events %q, stream %q", task, batch, stream)
				}
			}
			// With a rename hook the source builds full events; they
			// must be the ones ParseFtrace returns.
			var renamed []FtraceEvent
			_, renameErr := Collect(NewFtraceSource(bytes.NewReader(data), task, func(ev FtraceEvent) string {
				renamed = append(renamed, ev)
				return ev.Name
			}))
			sameErr(t, "rename, task "+task, batchErr, renameErr)
			if renameErr == nil {
				if len(renamed) != len(kept) {
					t.Fatalf("task %q: rename saw %d events, batch kept %d", task, len(renamed), len(kept))
				}
				for i := range kept {
					if !sameFtraceEvent(renamed[i], kept[i]) {
						t.Fatalf("task %q: event %d: stream %+v, batch %+v", task, i, renamed[i], kept[i])
					}
				}
			}
		}
	})
}

// sameFtraceEvent compares events field by field, timestamps by bits
// (the reference parser accepts "nan").
func sameFtraceEvent(a, b FtraceEvent) bool {
	return a.Task == b.Task && a.CPU == b.CPU && a.Name == b.Name && a.Detail == b.Detail &&
		math.Float64bits(a.Timestamp) == math.Float64bits(b.Timestamp)
}

// sameErr fails unless both errors are nil or both carry the same
// message.
func sameErr(t *testing.T, what string, want, got error) {
	t.Helper()
	if (want == nil) != (got == nil) || want != nil && want.Error() != got.Error() {
		t.Fatalf("%s: error %v, want %v", what, got, want)
	}
}

// FuzzCSV feeds arbitrary bytes to the CSV decoder: no panic, and its
// Next+Intern, NextID and ReadCSV paths agree.
func FuzzCSV(f *testing.F) {
	for _, s := range []string{
		"x:int,y:bool,e:sym:input\n1,true,a\n2,false,b\n1,true,a\n",
		"a:sym\n\"x,y\"\n\"multi\nline\"\nplain\n\"q\"\"q\"\n",
		"a:sym\nx\"y\n",
		"a:sym\n\"open\n",
		"x:int\r\n1\r\n\r\n 2 \r\n-9223372036854775808\r\n",
		"x:int\n99999999999999999999\n",
		"x:int,y:int\n1,2\n3\n",
		"x:float\n1\n",
		"x:int:output\n1\n",
		"x\n",
		"",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip()
		}
		open := func() (IDSource, error) { return NewCSVSource(NewBytes(data)) }
		checkDecoder(t, open, func() (*Trace, error) { return ReadCSV(bytes.NewReader(data)) })
	})
}

// FuzzEvents feeds arbitrary bytes to the event-log decoder: no panic,
// and its Next+Intern, NextID and ReadEvents paths agree.
func FuzzEvents(f *testing.F) {
	for _, s := range []string{
		"open\nclose\nopen\n",
		"# header\n\n  open  \r\nclose\n#open\nclose",
		" open\u0085\nopen\n",
		"a\x00b\n\xff\n",
		"",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip()
		}
		open := func() (IDSource, error) { return NewEventsSource(NewBytes(data)), nil }
		checkDecoder(t, open, func() (*Trace, error) { return ReadEvents(bytes.NewReader(data)) })
	})
}

// checkDecoder decodes one input three ways — Next with Intern,
// NextID, and the batch reader over a plain io.Reader — and fails
// unless all three yield the same observation ids and the same error.
func checkDecoder(t *testing.T, open func() (IDSource, error), read func() (*Trace, error)) {
	t.Helper()
	batch, batchErr := read()
	src, openErr := open()
	if openErr != nil {
		sameErr(t, "open", batchErr, openErr)
		return
	}
	nextIDs, nextErr := internAll(src)
	sameErr(t, "batch read", nextErr, batchErr)
	if batchErr == nil {
		if batchIDs, _ := internAll(NewTraceSource(batch)); !slices.Equal(batchIDs, nextIDs) {
			t.Fatalf("batch ids %v, Next+Intern %v", batchIDs, nextIDs)
		}
	}

	byID, _ := open()
	in := NewInterner()
	var idIDs []ObsID
	for {
		id, err := byID.NextID(in)
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			sameErr(t, "NextID", nextErr, err)
			break
		}
		idIDs = append(idIDs, id)
	}
	if !slices.Equal(nextIDs, idIDs) {
		t.Fatalf("NextID ids %v, Next+Intern %v", idIDs, nextIDs)
	}
}

// internAll interns a source's observations in a fresh interner until
// it ends; a clean end returns a nil error.
func internAll(src Source) ([]ObsID, error) {
	in := NewInterner()
	var ids []ObsID
	for {
		obs, err := src.Next()
		if err == io.EOF {
			return ids, nil
		}
		if err != nil {
			return ids, err
		}
		ids = append(ids, in.Intern(obs))
	}
}
