// Structured run tracing: Tracer records hierarchical spans
// (run → stage → unit) and point events, emitting one machine-readable
// JSON object per line (NDJSON) to a caller-supplied writer. It is the
// low-overhead flight recorder behind `t2m -trace-out`: every unique
// window synthesis, every SAT solver round and every compliance
// refinement becomes one line that offline tooling can aggregate.
//
// Overhead discipline: a nil *Tracer is a valid, fully disabled tracer
// — every method is a nil-check no-op, so hot paths hold a possibly-nil
// tracer and call it unconditionally. Call sites that build attributes
// must guard with Enabled() so the attribute slice is never
// materialised when tracing is off; the AllocsPerRun test pins the
// disabled path at zero allocations.
//
// Event schema (one JSON object per line; see DESIGN.md §7 and §18):
//
//	{"t":"trace_start","wall":"RFC3339 time","unit":"us"}
//	{"t":"start","ts":1234,"id":7,"par":3,"name":"solve"}
//	{"t":"end","ts":1290,"id":7,"attrs":{"status":"SAT","conflicts":12}}
//	{"t":"event","ts":1300,"par":7,"name":"compliance","attrs":{"grams":2}}
//	{"t":"sample","kind":"solve","head":64,"tail":32,"every":16,"seen":900,"written":210,"dropped":690}
//	{"t":"rollup","kind":"solve","count":900,"sum_us":4120,"min_us":1,"max_us":310,"p50_us":3,"p90_us":6,"p95_us":12,"p99_us":48}
//
// ts is microseconds since the trace_start line; id/par are span ids
// (0 = no parent). Attribute values are strings, integers, floats or
// booleans. sample and rollup lines carry no timestamp: they are
// emitted once by Close and must be byte-reproducible across runs.
//
// Bounded emission: a SamplePolicy caps the per-kind span volume for
// high-cardinality kinds (one "window" span per unique window, one
// "solve" span per solver round — O(steps) on a long trace). Sampled
// kinds keep their first Head spans, every stride-th span thereafter
// (the stride doubling every sampleGrowEvery mid-stream picks, so the
// in-stream volume is O(Head + log steps)), and the last Tail spans
// (drained by Close). The rollup line per kind is always exact — it
// aggregates every span's duration, sampled or not, through the same
// Histogram machinery the registry uses — so dropping span lines loses
// no aggregate information. Sampling decisions depend only on per-kind
// arrival counts, never on time, so two runs over the same input
// sample the same spans.
package pipeline

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID identifies one span in a trace; zero means "no span" and is
// the parent of root spans.
type SpanID uint64

// attrKind discriminates Attr payloads.
type attrKind uint8

const (
	attrInt attrKind = iota
	attrStr
	attrFloat
	attrBool
)

// Attr is one key/value attribute attached to a span or event.
type Attr struct {
	Key  string
	kind attrKind
	s    string
	i    int64
	f    float64
}

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, kind: attrInt, i: v} }

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, kind: attrStr, s: v} }

// Float builds a float attribute.
func Float(key string, v float64) Attr { return Attr{Key: key, kind: attrFloat, f: v} }

// Bool builds a boolean attribute.
func Bool(key string, v bool) Attr {
	a := Attr{Key: key, kind: attrBool}
	if v {
		a.i = 1
	}
	return a
}

// SampleRule bounds the emitted span volume for one span kind. All
// spans of the kind still feed the kind's exact duration rollup; the
// rule only limits which individual start/end line pairs reach the
// file.
type SampleRule struct {
	// Head is the number of initial spans always written.
	Head int
	// Tail is the number of final spans written when the tracer is
	// closed (held in a ring until then).
	Tail int
	// EveryN is the initial mid-stream stride: after the head, the
	// EveryN-th span is written, then the stride doubles every
	// sampleGrowEvery written spans, bounding mid-stream volume at
	// O(sampleGrowEvery · log n). Values < 1 mean 1.
	EveryN int
}

// SamplePolicy maps span kind (name) to its sampling rule. Kinds
// absent from the policy are never sampled: every span is written.
type SamplePolicy map[string]SampleRule

// sampleGrowEvery is the adaptive schedule: after this many mid-stream
// spans written at one stride, the stride doubles.
const sampleGrowEvery = 8

// DefaultSamplePolicy bounds the two high-cardinality kinds — one
// "window" span per unique window and one "solve" span per solver
// round, both O(trace length) on high-cardinality inputs — keeping
// trace files O(kinds · log steps) instead of O(steps).
func DefaultSamplePolicy() SamplePolicy {
	return SamplePolicy{
		"window": {Head: 64, Tail: 32, EveryN: 16},
		"solve":  {Head: 64, Tail: 32, EveryN: 16},
	}
}

// openSpan tracks one started, not-yet-ended span: enough to compute
// its duration at End, plus the withheld start line when the sampling
// policy decided not to write it.
type openSpan struct {
	kind    string
	startUS int64
	written bool   // start line already on the wire
	pending []byte // rendered start line (newline-terminated) when !written
}

// kindState aggregates one span kind: the exact duration rollup, the
// sampling counters, and the tail ring of withheld line pairs.
type kindState struct {
	rule    SampleRule
	sampled bool
	hist    *Histogram // duration rollup in µs; exact over all spans

	seen      int64 // spans of this kind ended (rollup population is spans started and ended)
	started   int64 // spans of this kind started (drives head/stride decisions)
	written   int64 // span pairs written in-stream (head + mid-stream)
	drained   int64 // span pairs written from the tail ring by Close
	stride    int64
	nextMid   int64
	sinceGrow int64

	tail  [][]byte // ring of withheld start+end line pairs
	tailN int64    // total pairs pushed (ring evicts oldest)
}

// admit decides, from arrival order alone, whether the next span of
// this kind gets its lines written in-stream. Callers hold the tracer
// mutex, so the decision sequence is deterministic for serially
// emitted kinds.
func (st *kindState) admit() bool {
	st.started++
	if !st.sampled {
		return true
	}
	i := st.started
	if i <= int64(st.rule.Head) {
		return true
	}
	if i == st.nextMid {
		st.sinceGrow++
		if st.sinceGrow >= sampleGrowEvery {
			st.stride *= 2
			st.sinceGrow = 0
		}
		st.nextMid = i + st.stride
		return true
	}
	if i > st.nextMid { // Head shrank past a precomputed mid (cannot happen today; keep monotonic)
		st.nextMid = i + st.stride
	}
	return false
}

// Tracer writes NDJSON span/event lines. The zero value is not usable;
// call NewTracer. A nil *Tracer is the disabled tracer: every method
// no-ops. Methods are safe for concurrent use.
type Tracer struct {
	mu     sync.Mutex
	w      *bufio.Writer
	buf    []byte // per-line scratch, reused under mu
	err    error  // first write error; subsequent lines are dropped
	next   atomic.Uint64
	epoch  time.Time
	clock  func() int64 // µs since epoch; nil = wall clock
	header bool         // trace_start line written
	closed bool

	policy SamplePolicy
	open   map[SpanID]*openSpan
	kinds  map[string]*kindState
	names  []string    // kind names in first-seen order (sorted at Close)
	free   []*openSpan // openSpan recycling
}

// NewTracer returns a Tracer writing NDJSON lines to w. The
// trace_start header line is emitted lazily before the first line (so
// SetPolicy and SetClock can run first). The caller owns w; call Close
// (or at least Flush) before closing it.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{
		w:     bufio.NewWriter(w),
		epoch: time.Now(),
		open:  map[SpanID]*openSpan{},
		kinds: map[string]*kindState{},
	}
}

// SetPolicy installs the sampling policy. Must be called before the
// first span is started; a nil policy (the default) writes every span.
func (t *Tracer) SetPolicy(p SamplePolicy) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.policy = p
	t.mu.Unlock()
}

// SetClock replaces the tracer's timestamp source with fn, which must
// return microseconds since the start of the trace. A deterministic fn
// makes the whole trace file byte-reproducible (the wall field of the
// header is pinned to the epoch); the differential harness uses this
// to pin sampled-vs-full rollup identity. Must be called before the
// first line is written; fn must be safe for concurrent use.
func (t *Tracer) SetClock(fn func() int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.clock = fn
	t.mu.Unlock()
}

// nowUS is the tracer's clock: microseconds since the epoch.
func (t *Tracer) nowUS() int64 {
	if t.clock != nil {
		return t.clock()
	}
	return time.Since(t.epoch).Microseconds()
}

// Enabled reports whether the tracer records anything. Hot paths use
// it to skip attribute construction entirely when tracing is off.
func (t *Tracer) Enabled() bool { return t != nil }

// kind returns (creating) the per-kind state for name. Callers hold
// t.mu.
func (t *Tracer) kind(name string) *kindState {
	st, ok := t.kinds[name]
	if !ok {
		st = &kindState{hist: newHistogram(name, "us")}
		if rule, sampled := t.policy[name]; sampled {
			if rule.EveryN < 1 {
				rule.EveryN = 1
			}
			if rule.Head < 0 {
				rule.Head = 0
			}
			if rule.Tail < 0 {
				rule.Tail = 0
			}
			st.rule = rule
			st.sampled = true
			st.stride = int64(rule.EveryN)
			st.nextMid = int64(rule.Head) + st.stride
			if rule.Tail > 0 {
				st.tail = make([][]byte, rule.Tail)
			}
		}
		t.kinds[name] = st
		t.names = append(t.names, name)
	}
	return st
}

// newOpen takes an openSpan from the free list (or allocates).
// Callers hold t.mu.
func (t *Tracer) newOpen(kind string, ts int64) *openSpan {
	var os *openSpan
	if n := len(t.free); n > 0 {
		os = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		os = &openSpan{}
	}
	os.kind, os.startUS, os.written = kind, ts, false
	os.pending = os.pending[:0]
	return os
}

// Start opens a span under parent (0 for a root span) and returns its
// id. On a nil tracer it returns 0.
func (t *Tracer) Start(parent SpanID, name string, attrs ...Attr) SpanID {
	if t == nil {
		return 0
	}
	id := SpanID(t.next.Add(1))
	ts := t.nowUS()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ensureHeader()
	st := t.kind(name)
	os := t.newOpen(name, ts)
	if st.admit() {
		os.written = true
		st.written++
		t.buf = renderEvent(t.buf[:0], "start", ts, id, parent, name, attrs)
		t.writeLine()
	} else {
		os.pending = renderEvent(os.pending[:0], "start", ts, id, parent, name, attrs)
		os.pending = append(os.pending, '\n')
	}
	t.open[id] = os
	return id
}

// End closes the span, attaching the final attributes (durations,
// outcome counters). The span's duration always feeds its kind's
// rollup, whether or not its lines are written.
func (t *Tracer) End(id SpanID, attrs ...Attr) {
	if t == nil {
		return
	}
	ts := t.nowUS()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ensureHeader()
	os := t.open[id]
	if os == nil {
		// Unmatched end (or id 0): emit as-is, no rollup to feed.
		t.buf = renderEvent(t.buf[:0], "end", ts, id, 0, "", attrs)
		t.writeLine()
		return
	}
	delete(t.open, id)
	st := t.kinds[os.kind]
	st.seen++
	st.hist.Observe(ts - os.startUS)
	if os.written {
		t.buf = renderEvent(t.buf[:0], "end", ts, id, 0, "", attrs)
		t.writeLine()
	} else if st.rule.Tail > 0 {
		// Withheld pair: park start+end in the tail ring, evicting the
		// oldest. The ring slot's buffer is reused, so a dropped span
		// costs no steady-state allocation.
		slot := st.tailN % int64(st.rule.Tail)
		pair := append(st.tail[slot][:0], os.pending...)
		pair = renderEvent(pair, "end", ts, id, 0, "", attrs)
		st.tail[slot] = append(pair, '\n')
		st.tailN++
	}
	t.free = append(t.free, os)
}

// Event records a point event under a span (0 for a top-level event).
// Events are never sampled: they are rare (compliance, acceptance)
// and carry decisions, not volume.
func (t *Tracer) Event(parent SpanID, name string, attrs ...Attr) {
	if t == nil {
		return
	}
	ts := t.nowUS()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ensureHeader()
	t.buf = renderEvent(t.buf[:0], "event", ts, 0, parent, name, attrs)
	t.writeLine()
}

// Flush drains buffered lines to the underlying writer and returns the
// first error seen by any write.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ensureHeader()
	return t.flushLocked()
}

func (t *Tracer) flushLocked() error {
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}

// Close finalises the trace: drains every sampled kind's tail ring,
// emits one timestamp-free "sample" accounting line per sampled kind
// and one exact "rollup" duration-aggregate line per kind (sorted by
// kind, so the epilogue is byte-reproducible), and flushes. Idempotent
// — the epilogue is written once; later calls only report the write
// error. Spans still open at Close are not rolled up (their duration
// is unknown) and their withheld start lines are discarded.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return t.flushLocked()
	}
	t.closed = true
	t.ensureHeader()
	sort.Strings(t.names)
	for _, name := range t.names {
		st := t.kinds[name]
		if st.tailN == 0 {
			continue
		}
		n := st.tailN
		if max := int64(st.rule.Tail); n > max {
			n = max
		}
		for i := st.tailN - n; i < st.tailN; i++ {
			t.writeRaw(st.tail[i%int64(st.rule.Tail)])
		}
		st.drained = n
	}
	for _, name := range t.names {
		st := t.kinds[name]
		if !st.sampled {
			continue
		}
		b := append(t.buf[:0], `{"t":"sample","kind":`...)
		b = appendJSONString(b, name)
		b = append(b, `,"head":`...)
		b = strconv.AppendInt(b, int64(st.rule.Head), 10)
		b = append(b, `,"tail":`...)
		b = strconv.AppendInt(b, int64(st.rule.Tail), 10)
		b = append(b, `,"every":`...)
		b = strconv.AppendInt(b, int64(st.rule.EveryN), 10)
		b = append(b, `,"seen":`...)
		b = strconv.AppendInt(b, st.started, 10)
		b = append(b, `,"written":`...)
		b = strconv.AppendInt(b, st.written+st.drained, 10)
		b = append(b, `,"dropped":`...)
		b = strconv.AppendInt(b, st.started-st.written-st.drained, 10)
		b = append(b, '}')
		t.buf = b
		t.writeLine()
	}
	for _, name := range t.names {
		st := t.kinds[name]
		if st.seen == 0 {
			continue
		}
		s := st.hist.Summary()
		b := append(t.buf[:0], `{"t":"rollup","kind":`...)
		b = appendJSONString(b, name)
		b = append(b, `,"count":`...)
		b = strconv.AppendInt(b, s.Count, 10)
		b = append(b, `,"sum_us":`...)
		b = strconv.AppendInt(b, s.Sum, 10)
		b = append(b, `,"min_us":`...)
		b = strconv.AppendInt(b, s.Min, 10)
		b = append(b, `,"max_us":`...)
		b = strconv.AppendInt(b, s.Max, 10)
		b = append(b, `,"p50_us":`...)
		b = strconv.AppendInt(b, s.P50, 10)
		b = append(b, `,"p90_us":`...)
		b = strconv.AppendInt(b, s.P90, 10)
		b = append(b, `,"p95_us":`...)
		b = strconv.AppendInt(b, s.P95, 10)
		b = append(b, `,"p99_us":`...)
		b = strconv.AppendInt(b, s.P99, 10)
		b = append(b, '}')
		t.buf = b
		t.writeLine()
	}
	return t.flushLocked()
}

// Rollups returns the exact per-kind duration rollups (µs) accumulated
// so far, keyed by span kind — the same aggregates Close writes as
// rollup lines. Safe on a nil tracer (empty map).
func (t *Tracer) Rollups() map[string]HistogramSummary {
	out := map[string]HistogramSummary{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for name, st := range t.kinds {
		if st.seen > 0 {
			out[name] = st.hist.Summary()
		}
	}
	return out
}

// ensureHeader writes the trace_start line once. Callers hold t.mu.
func (t *Tracer) ensureHeader() {
	if t.header {
		return
	}
	t.header = true
	wall := t.epoch.Format(time.RFC3339Nano)
	if t.clock != nil {
		// Deterministic clock → deterministic header, so the whole file
		// is byte-reproducible.
		wall = "1970-01-01T00:00:00Z"
	}
	t.buf = append(t.buf[:0], `{"t":"trace_start","wall":`...)
	t.buf = appendJSONString(t.buf, wall)
	t.buf = append(t.buf, `,"unit":"us"}`...)
	t.writeLine()
}

// renderEvent renders one NDJSON line (no trailing newline) into dst.
func renderEvent(dst []byte, typ string, ts int64, id, parent SpanID, name string, attrs []Attr) []byte {
	b := append(dst, `{"t":"`...)
	b = append(b, typ...)
	b = append(b, `","ts":`...)
	b = strconv.AppendInt(b, ts, 10)
	if id != 0 {
		b = append(b, `,"id":`...)
		b = strconv.AppendUint(b, uint64(id), 10)
	}
	if parent != 0 {
		b = append(b, `,"par":`...)
		b = strconv.AppendUint(b, uint64(parent), 10)
	}
	if name != "" {
		b = append(b, `,"name":`...)
		b = appendJSONString(b, name)
	}
	if len(attrs) > 0 {
		b = append(b, `,"attrs":{`...)
		for i, a := range attrs {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, a.Key)
			b = append(b, ':')
			switch a.kind {
			case attrInt:
				b = strconv.AppendInt(b, a.i, 10)
			case attrStr:
				b = appendJSONString(b, a.s)
			case attrFloat:
				b = strconv.AppendFloat(b, a.f, 'g', -1, 64)
			case attrBool:
				b = strconv.AppendBool(b, a.i != 0)
			}
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

// writeLine appends the newline and writes t.buf. Callers hold t.mu.
func (t *Tracer) writeLine() {
	if t.err != nil {
		return
	}
	t.buf = append(t.buf, '\n')
	if _, err := t.w.Write(t.buf); err != nil {
		t.err = err
	}
}

// writeRaw writes an already newline-terminated rendered line (or line
// pair). Callers hold t.mu.
func (t *Tracer) writeRaw(line []byte) {
	if t.err != nil {
		return
	}
	if _, err := t.w.Write(line); err != nil {
		t.err = err
	}
}

// appendJSONString appends s as a JSON string literal, escaping the
// characters JSON requires (strconv.AppendQuote emits Go escapes like
// \x1b that JSON rejects, so this is hand-rolled).
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\t':
			b = append(b, '\\', 't')
		case c == '\r':
			b = append(b, '\\', 'r')
		case c < 0x20:
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			// Multi-byte UTF-8 sequences pass through byte-wise: JSON
			// strings are UTF-8 and need no escaping beyond the above.
			b = append(b, c)
		}
	}
	return append(b, '"')
}
