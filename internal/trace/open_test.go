package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

const (
	openCSV    = "x:int\n1\n2\n3\n"
	openEvents = "push\npop\npush\n"
	openFtrace = "a-1 [000] d..3 1.000001: sched_switch: x\n" +
		"b-2 [001] d..3 1.000002: sched_waking: y\n" +
		"a-1 [000] d..3 1.000003: sched_waking: z\n"
)

// writeInput writes data to a file named name in a fresh directory.
func writeInput(t *testing.T, name, data string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// mapped reports whether path is mapped into this process, read from
// /proc/self/maps; the test skips where that file does not exist.
func mapped(t *testing.T, path string) bool {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skip("no /proc/self/maps on this platform")
	}
	return bytes.Contains(maps, []byte(path))
}

func TestFormatOf(t *testing.T) {
	for _, tc := range []struct{ path, format, want string }{
		{"t.csv", "", "csv"},
		{"t.ftrace", "", "ftrace"},
		{"t.trace", "", "ftrace"},
		{"t.vcd", "", "vcd"},
		{"t.log", "", "events"},
		{"-", "", "events"},
		{"t.vcd", "csv", "csv"},
		{"-", "ftrace", "ftrace"},
	} {
		if got := FormatOf(tc.path, tc.format); got != tc.want {
			t.Errorf("FormatOf(%q, %q) = %q, want %q", tc.path, tc.format, got, tc.want)
		}
	}
}

// TestOpenByExtension opens one file per extension and decodes it with
// the matching source; release unmaps the file.
func TestOpenByExtension(t *testing.T) {
	for _, tc := range []struct {
		name, data, task string
		want             Source
		obs              int
	}{
		{"t.csv", openCSV, "", &CSVSource{}, 3},
		{"t.log", openEvents, "", &EventsSource{}, 3},
		{"t.ftrace", openFtrace, "a-1", &FtraceSource{}, 2},
		{"t.trace", openFtrace, "", &FtraceSource{}, 3},
		{"t.vcd", sampleVCD, "", &VCDSource{}, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := writeInput(t, tc.name, tc.data)
			src, release, err := Open(path, "", tc.task, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.TypeOf(src) != reflect.TypeOf(tc.want) {
				t.Errorf("source is %T, want %T", src, tc.want)
			}
			tr, err := Collect(src)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Len() != tc.obs {
				t.Errorf("decoded %d observations, want %d", tr.Len(), tc.obs)
			}
			if !mapped(t, path) {
				t.Error("input not mapped while the source is open")
			}
			release()
			if mapped(t, path) {
				t.Error("input still mapped after release")
			}
		})
	}
}

// TestOpenStdin reads "-" from stdin, in the format the flag names or
// as events by default.
func TestOpenStdin(t *testing.T) {
	for _, tc := range []struct{ format, data, first string }{
		{"csv", openCSV, "1"},
		{"", openEvents, "push"},
	} {
		stdin := os.Stdin
		f, err := os.Open(writeInput(t, "stdin", tc.data))
		if err != nil {
			t.Fatal(err)
		}
		os.Stdin = f
		src, release, err := Open("-", tc.format, "", nil, nil)
		os.Stdin = stdin
		if err != nil {
			t.Fatal(err)
		}
		tr, err := Collect(src)
		release()
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() != 3 || tr.At(0)[0].String() != tc.first {
			t.Errorf("format %q from stdin: %d observations, first %v", tc.format, tr.Len(), tr.At(0))
		}
	}
}

// TestOpenErrorReleasesInput: an unknown format and a header the
// decoder rejects both fail without leaving the input mapped.
func TestOpenErrorReleasesInput(t *testing.T) {
	for _, tc := range []struct{ format, data, want string }{
		{"xml", openCSV, `unknown input format "xml"`},
		{"csv", "x:float\n1\n", "unknown type"},
		{"vcd", "not a dump\n", "vcd"},
	} {
		path := writeInput(t, "in.dat", tc.data)
		src, release, err := Open(path, tc.format, "", nil, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("format %q: err = %v, want one containing %q", tc.format, err, tc.want)
		}
		if src != nil || release != nil {
			t.Errorf("format %q: failed Open returned a source or a release", tc.format)
		}
		if mapped(t, path) {
			t.Errorf("format %q: input still mapped after the failed Open", tc.format)
		}
	}
	if _, _, err := Open(filepath.Join(t.TempDir(), "missing.csv"), "", "", nil, nil); err == nil {
		t.Error("opening a missing file succeeded")
	}
}

// TestOpenVCDSignals: signals selects and orders the VCD's variables.
func TestOpenVCDSignals(t *testing.T) {
	path := writeInput(t, "t.vcd", sampleVCD)
	src, release, err := Open(path, "", "", []string{"count", "top.clk"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if got := src.Schema().Names(); !reflect.DeepEqual(got, []string{"top.fifo.count", "top.clk"}) {
		t.Errorf("schema names %v, want [top.fifo.count top.clk]", got)
	}
	if _, _, err := Open(path, "", "", []string{"nosuch"}, nil); err == nil {
		t.Error("an undeclared signal was accepted")
	}

	// The schema's own names select the same signals again, also where
	// a declared name had to be sanitized into an identifier.
	odd := writeInput(t, "odd.vcd", strings.ReplaceAll(sampleVCD, " clk ", " clk-in "))
	all, release, err := Open(odd, "", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	release()
	names := all.Schema().Names()
	again, release, err := Open(odd, "", "", names, nil)
	if err != nil {
		t.Fatalf("reopening with the schema names %v: %v", names, err)
	}
	release()
	if !again.Schema().Equal(all.Schema()) {
		t.Errorf("schema names %v select %v", names, again.Schema().Names())
	}
}

// TestOpenFollow reads a file that grows while it is followed, until
// the idle exit, and then closes it.
func TestOpenFollow(t *testing.T) {
	path := writeInput(t, "grow.csv", "x:int\n1\n")
	src, release, err := Open(path, "", "", nil, &FollowOptions{Poll: 5 * time.Millisecond, IdleExit: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			return
		}
		f.WriteString("2\n3\n")
		f.Close()
	}()
	tr, err := Collect(src)
	release()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 {
		t.Errorf("followed %d observations, want 3", tr.Len())
	}
	if mapped(t, path) {
		t.Error("a followed file was mapped")
	}
}
