package trace

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/expr"
)

// FtraceEvent is one record of an ftrace-style log: the task that was
// running, a timestamp, the event name, and the raw detail field.
type FtraceEvent struct {
	Task      string  // "comm-pid"
	CPU       int     // reporting CPU
	Timestamp float64 // seconds
	Name      string  // event name, e.g. "sched_switch"
	Detail    string  // remainder of the line after "event: "
}

// ParseFtrace parses logs in the format emitted by the Linux ftrace
// function/event tracer (and by internal/systems/rtlinux, which mimics
// it):
//
//	<task>-<pid> [<cpu>] <flags> <timestamp>: <event>: <detail>
//
// Header lines starting with '#' and blank lines are skipped. The
// flags column is optional, matching both `trace` and `trace_pipe`
// output variants. Lines of any length are accepted.
func ParseFtrace(r io.Reader) ([]FtraceEvent, error) {
	lines := ftraceLines{ln: newLiner(r)}
	var out []FtraceEvent
	for {
		line, err := lines.next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		var c ftraceCols
		if !c.split(line) {
			ev, err := parseFtraceLine(string(line))
			if err != nil {
				return nil, lines.errorf(err)
			}
			out = append(out, ev)
			continue
		}
		out = append(out, c.event())
	}
}

// ftraceLines yields the records of an ftrace log: each line that is
// neither blank nor a '#' comment, trimmed and borrowed until the next
// call. ParseFtrace and FtraceSource both read through it, so they
// agree on what a record is and on the line an error names.
type ftraceLines struct {
	ln     liner
	lineNo int
}

func (l *ftraceLines) next() ([]byte, error) {
	for {
		raw, err := l.ln.next()
		if err == io.EOF {
			return nil, io.EOF
		}
		if err != nil {
			return nil, fmt.Errorf("ftrace: %w", err)
		}
		l.lineNo++
		if line := trimSpace(raw); len(line) != 0 && line[0] != '#' {
			return line, nil
		}
	}
}

// errorf positions a parse error at the current line.
func (l *ftraceLines) errorf(err error) error {
	return fmt.Errorf("ftrace: line %d: %w", l.lineNo, err)
}

// ftraceCols is one ftrace line split in place: the text columns are
// subslices of the line and valid only as long as it is.
type ftraceCols struct {
	task   []byte
	cpu    int
	ts     []byte // timestamp digits, without the ':'
	name   []byte // event name, without the ':'
	detail []byte // the rest of the line after the name column
}

// maxCPUDigits keeps every accepted CPU number within a 32-bit int,
// so it fits the int fmt.Sscanf scans into on any platform.
const maxCPUDigits = 9

// maxSecondDigits bounds the integer part of an accepted timestamp:
// below 1e308 strconv.ParseFloat cannot overflow. (A long fraction
// only underflows towards zero, which ParseFloat does not report.)
const maxSecondDigits = 308

// split splits a trimmed, non-comment line into c's columns without
// copying it. It accepts a line only when it can confirm that
// parseFtraceLine accepts it too and finds the same columns:
//
//   - every column up to the event name is ASCII and ends at ASCII
//     whitespace or at the end of the line (strings.Fields splits such
//     columns the same way whatever the rest of the line holds);
//   - the CPU column is '[', 1–9 digits, ']';
//   - the timestamp column, after the optional flags column, is
//     digits '.' digits ':' with at most 308 integer digits;
//   - an event-name column follows.
//
// Anything else — a non-ASCII byte or Unicode space in those columns,
// a sign, exponent or hex timestamp, too few columns — returns false,
// and the caller hands the line to parseFtraceLine, which either
// accepts it or reports the error.
func (c *ftraceCols) split(line []byte) bool {
	task, i, ok := ftraceColumn(line, 0)
	if !ok {
		return false
	}
	cpu, i, ok := ftraceColumn(line, i)
	if !ok || !c.setCPU(cpu) {
		return false
	}
	ts, i, ok := ftraceColumn(line, i)
	if ok && ts[len(ts)-1] != ':' {
		ts, i, ok = ftraceColumn(line, i) // skip the irq/preempt flags
	}
	if !ok || !ftraceTimestamp(ts) {
		return false
	}
	name, i, ok := ftraceColumn(line, i)
	if !ok {
		return false
	}
	if name[len(name)-1] == ':' {
		name = name[:len(name)-1]
	}
	c.task, c.ts, c.name, c.detail = task, ts[:len(ts)-1], name, line[i:]
	return true
}

// ftraceColumn returns the column starting at or after line[i] and
// the index just past it. ok is false at the end of the line and when
// the column holds a non-ASCII byte.
func ftraceColumn(line []byte, i int) (col []byte, next int, ok bool) {
	for i < len(line) && asciiSpace(line[i]) {
		i++
	}
	start := i
	for i < len(line) && columnByte[line[i]] {
		i++
	}
	if i < len(line) && line[i] >= utf8.RuneSelf {
		return nil, i, false
	}
	return line[start:i], i, i > start
}

// asciiSpace is unicode.IsSpace restricted to ASCII.
func asciiSpace(b byte) bool { return b == ' ' || b >= '\t' && b <= '\r' }

// columnByte marks the bytes a column is made of on the fast path:
// ASCII other than whitespace.
var columnByte = func() (t [256]bool) {
	for b := 0; b < utf8.RuneSelf; b++ {
		t[b] = !asciiSpace(byte(b))
	}
	return t
}()

// leadingDigits counts the ASCII digits at the start of b.
func leadingDigits(b []byte) int {
	n := 0
	for n < len(b) && b[n] >= '0' && b[n] <= '9' {
		n++
	}
	return n
}

// setCPU checks a "[<digits>]" column and stores its value.
func (c *ftraceCols) setCPU(col []byte) bool {
	n := len(col) - 2
	if n < 1 || n > maxCPUDigits || col[0] != '[' || col[n+1] != ']' || leadingDigits(col[1:]) != n {
		return false
	}
	c.cpu = 0
	for _, b := range col[1 : n+1] {
		c.cpu = c.cpu*10 + int(b-'0')
	}
	return true
}

// ftraceTimestamp checks a "<digits>.<digits>:" column.
func ftraceTimestamp(col []byte) bool {
	n := len(col) - 1 // without the ':'
	if n < 3 || col[n] != ':' {
		return false
	}
	dot := leadingDigits(col)
	return dot > 0 && dot <= maxSecondDigits && dot < n-1 && col[dot] == '.' &&
		leadingDigits(col[dot+1:]) == n-dot-1
}

// event builds the full record. CPU and timestamp come from the digits
// split checked; ParseFloat is what fmt.Sscanf's %f computes for them,
// and it cannot fail within split's bounds.
func (c *ftraceCols) event() FtraceEvent {
	ts, _ := strconv.ParseFloat(string(c.ts), 64)
	return FtraceEvent{
		Task:      string(c.task),
		CPU:       c.cpu,
		Timestamp: ts,
		Name:      string(c.name),
		Detail:    strings.Join(strings.Fields(string(c.detail)), " "),
	}
}

// parseFtraceLine is the reference parser: every line split cannot
// confirm goes through it, so it alone decides which malformed
// lines are rejected and with what message.
func parseFtraceLine(line string) (FtraceEvent, error) {
	var ev FtraceEvent

	// Task column (may itself contain '-'; pid is the final dash
	// separated field before whitespace).
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return ev, fmt.Errorf("too few columns in %q", line)
	}
	ev.Task = fields[0]

	// CPU column: "[000]".
	i := 1
	cpu := fields[i]
	if !strings.HasPrefix(cpu, "[") || !strings.HasSuffix(cpu, "]") {
		return ev, fmt.Errorf("missing cpu column in %q", line)
	}
	if _, err := fmt.Sscanf(cpu, "[%d]", &ev.CPU); err != nil {
		return ev, fmt.Errorf("bad cpu column %q", cpu)
	}
	i++

	// Optional irq/preempt flags column, e.g. "d..3".
	if i < len(fields) && !strings.HasSuffix(fields[i], ":") {
		i++
	}
	if i >= len(fields) {
		return ev, fmt.Errorf("missing timestamp in %q", line)
	}

	// Timestamp column: "123.456789:".
	ts := strings.TrimSuffix(fields[i], ":")
	if _, err := fmt.Sscanf(ts, "%f", &ev.Timestamp); err != nil {
		return ev, fmt.Errorf("bad timestamp %q", fields[i])
	}
	i++
	if i >= len(fields) {
		return ev, fmt.Errorf("missing event name in %q", line)
	}

	// Event name column: "sched_switch:".
	name := fields[i]
	ev.Name = strings.TrimSuffix(name, ":")
	i++
	ev.Detail = strings.Join(fields[i:], " ")
	return ev, nil
}

// FtraceToTrace projects a parsed ftrace log onto an event trace for a
// single task under analysis. Events whose Task does not match task
// are dropped unless task is empty, in which case all events are kept.
// The rename map optionally rewrites raw event names to model-level
// names (e.g. "sched_switch" with a matching prev task to
// "sched_switch_suspend"); unmapped names pass through unchanged.
func FtraceToTrace(events []FtraceEvent, task string, rename func(FtraceEvent) string) *Trace {
	var names []string
	for _, ev := range events {
		if task != "" && ev.Task != task {
			continue
		}
		name := ev.Name
		if rename != nil {
			name = rename(ev)
		}
		if name == "" {
			continue
		}
		names = append(names, name)
	}
	return FromEvents(names)
}

// FtraceSource streams an ftrace-style log as an event trace for one
// task under analysis, without materialising the parsed event records:
// the projection of ParseFtrace + FtraceToTrace, line by line. Every
// line is still checked, but a line of another task is compared by its
// task column alone and a kept event name is interned by its bytes, so
// decoding a well-formed line allocates nothing.
type FtraceSource struct {
	sourceCloser
	lines  ftraceLines
	schema *Schema
	task   string
	rename func(FtraceEvent) string
	names  map[string]string // kept event names, keyed by their bytes
	obs    Observation
}

// NewFtraceSource returns a source over the log. Events whose Task
// does not match task are dropped unless task is empty; rename
// optionally rewrites raw event names (empty result drops the event).
func NewFtraceSource(r io.Reader, task string, rename func(FtraceEvent) string) *FtraceSource {
	return &FtraceSource{
		sourceCloser: newSourceCloser(r),
		lines:        ftraceLines{ln: newLiner(r)},
		schema:       EventSchema(),
		task:         task,
		rename:       rename,
		names:        map[string]string{},
		obs:          make(Observation, 1),
	}
}

// Schema implements Source.
func (s *FtraceSource) Schema() *Schema { return s.schema }

// BytesRead implements ByteSource.
func (s *FtraceSource) BytesRead() int64 { return s.lines.ln.consumed() }

// Next implements Source.
func (s *FtraceSource) Next() (Observation, error) {
	for {
		line, err := s.lines.next()
		if err != nil {
			return nil, err
		}
		name, err := s.project(line)
		if err != nil {
			return nil, s.lines.errorf(err)
		}
		if name != "" {
			s.obs[0] = expr.SymVal(name)
			return s.obs, nil
		}
	}
}

// project returns the model-level event name of one line, or "" when
// the event is dropped.
func (s *FtraceSource) project(line []byte) (string, error) {
	var c ftraceCols
	if !c.split(line) {
		ev, err := parseFtraceLine(string(line))
		switch {
		case err != nil:
			return "", err
		case s.task != "" && ev.Task != s.task:
			return "", nil
		case s.rename != nil:
			return s.rename(ev), nil
		}
		return ev.Name, nil
	}
	if s.task != "" && string(c.task) != s.task {
		return "", nil
	}
	if s.rename != nil {
		return s.rename(c.event()), nil
	}
	name, seen := s.names[string(c.name)]
	if !seen {
		name = string(c.name)
		s.names[name] = name
	}
	return name, nil
}
