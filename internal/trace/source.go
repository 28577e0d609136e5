package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/expr"
)

// Source is a pull iterator over the observations of one trace. It is
// the streaming counterpart of Trace: decoders yield observations one
// at a time, so a consumer that only needs a sliding window (the
// predicate windower) holds O(window) observations instead of the
// whole trace.
//
// Next returns io.EOF after the last observation. The returned slice
// is only valid until the following Next call — sources reuse their
// observation buffer — so consumers that retain values must copy them
// (the observation interner copies on first sight, which is the only
// copy the streaming pipeline makes).
type Source interface {
	// Schema declares the observed variables, fixed for the whole
	// stream.
	Schema() *Schema
	// Next returns the next observation, or io.EOF at end of stream.
	Next() (Observation, error)
}

// ByteSource is implemented by sources that read from a byte stream
// and can report ingestion progress; the pipeline surfaces the count
// as a bytes_read stage counter.
type ByteSource interface {
	BytesRead() int64
}

// IDSource is a Source that can intern its own records: NextID returns
// the interned id of the next observation directly, or io.EOF. Sources
// implement it by keying a small cache on the raw record bytes, so a
// repeated record skips decoding and interning entirely — the dominant
// cost on long, repetition-heavy traces. The contract is exact
// equivalence with Next + in.Intern(obs): the same ids are assigned in
// the same first-sight order, so consumers may mix the two freely.
type IDSource interface {
	Source
	NextID(in *Interner) (ObsID, error)
}

// BlockSource is a Source whose remaining input can be handed out as
// contiguous, record-aligned byte blocks for parallel shard decoding
// (perfbench's decode-only pass uses it; the windower reads records
// one at a time). Blocks are borrowed from the underlying buffer and
// decoded by per-worker BlockDecoders; concatenating the blocks in
// hand-out order reproduces the remaining input exactly, which is
// what makes a sharded merge deterministic.
type BlockSource interface {
	Source
	// Blocks returns a block iterator (each call yields the next block,
	// io.EOF at the end) and true, or nil and false when the source
	// cannot shard — it is not slice-backed, or the format needs
	// cross-record state. After a successful call the source's
	// Next/NextID must no longer be used.
	Blocks(target int) (func() ([]byte, error), bool)
	// NewBlockDecoder returns an independent decoder for one shard
	// worker; each worker must own exactly one.
	NewBlockDecoder() BlockDecoder
}

// BlockDecoder parses one block at a time, emitting its observations
// in record order. The emitted slice is reused between calls, exactly
// like Source.Next.
type BlockDecoder interface {
	Decode(block []byte, emit func(Observation) error) error
}

// Collect materialises a source into an in-memory Trace (the bridge
// back to the batch pipeline for small inputs and tests). On a decode
// error it closes the source (when the source supports Close) before
// returning: the stream is mid-record and unusable, and without the
// close an abandoned decode over an os.File would leak the descriptor.
// On success the source is left open — the caller owns its lifecycle.
func Collect(src Source) (*Trace, error) {
	t := New(src.Schema())
	for {
		obs, err := src.Next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, closeOnError(src, err)
		}
		// Sources reuse their observation buffer, so Append's
		// defensive copy is load-bearing here.
		if err := t.Append(obs); err != nil {
			return nil, closeOnError(src, err)
		}
	}
}

// closeOnError releases the source's underlying reader after a failed
// decode and carries any close failure alongside the original error.
func closeOnError(src Source, err error) error {
	if c, ok := src.(io.Closer); ok {
		if cerr := c.Close(); cerr != nil {
			return errors.Join(err, cerr)
		}
	}
	return err
}

// sourceCloser gives a streaming decoder an idempotent Close that
// forwards to the reader it was constructed over, when that reader is
// itself an io.Closer (an os.File or a *Bytes mapping; not a
// bytes.Reader). Embedded by every decoder source so callers — and
// Collect's error path — can release the input without tracking the
// reader separately.
type sourceCloser struct {
	c      io.Closer
	closed bool
}

// newSourceCloser captures r's Close method if it has one.
func newSourceCloser(r io.Reader) sourceCloser {
	c, _ := r.(io.Closer)
	return sourceCloser{c: c}
}

// Close releases the underlying reader. It is idempotent: only the
// first call reaches the reader.
func (s *sourceCloser) Close() error {
	if s.closed || s.c == nil {
		s.closed = true
		return nil
	}
	s.closed = true
	return s.c.Close()
}

// TraceSource adapts an in-memory Trace to the Source interface (for
// tests and for feeding already-materialised traces through the
// streaming pipeline).
type TraceSource struct {
	tr *Trace
	i  int
}

// NewTraceSource returns a source yielding tr's observations in order.
func NewTraceSource(tr *Trace) *TraceSource { return &TraceSource{tr: tr} }

// Schema implements Source.
func (s *TraceSource) Schema() *Schema { return s.tr.Schema() }

// Next implements Source.
func (s *TraceSource) Next() (Observation, error) {
	if s.i >= s.tr.Len() {
		return nil, io.EOF
	}
	obs := s.tr.At(s.i)
	s.i++
	return obs, nil
}

// countingReader counts bytes as they are consumed; byte-stream
// decoders that cannot use the line reader (the VCD tokenizer) wrap
// their input in one so ingestion progress stays observable.
type countingReader struct {
	r io.Reader
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingReader) BytesRead() int64 { return c.n.Load() }

// idCacheMax bounds the raw-record id caches: past this many distinct
// records a source stops adding entries (lookups still hit). The bound
// only matters for adversarial inputs where distinct record texts
// vastly outnumber distinct observations.
const idCacheMax = 1 << 20

// --- fast field parsing -------------------------------------------

// parseIntBytes parses a base-10 signed integer, accepting exactly the
// inputs strconv.ParseInt(s, 10, 64) accepts. The boolean is false on
// any malformed or overflowing input; callers fall back to strconv for
// the error value.
func parseIntBytes(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		b = b[1:]
		if len(b) == 0 {
			return 0, false
		}
	}
	const cutoff = math.MaxUint64/10 + 1
	var un uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		if un >= cutoff {
			return 0, false
		}
		un = un*10 + uint64(c-'0')
	}
	max := uint64(math.MaxInt64)
	if neg {
		max++
	}
	if un > max {
		return 0, false
	}
	if neg {
		return -int64(un), true
	}
	return int64(un), true
}

// parseBoolBytes accepts exactly strconv.ParseBool's vocabulary.
func parseBoolBytes(b []byte) (bool, bool) {
	switch len(b) {
	case 1:
		switch b[0] {
		case '1', 't', 'T':
			return true, true
		case '0', 'f', 'F':
			return false, true
		}
	case 4:
		if string(b) == "true" || string(b) == "TRUE" || string(b) == "True" {
			return true, true
		}
	case 5:
		if string(b) == "false" || string(b) == "FALSE" || string(b) == "False" {
			return false, true
		}
	}
	return false, false
}

// --- CSV -----------------------------------------------------------

// csvRow decodes one CSV record at a time: field splitting on borrowed
// byte slices, integer/boolean parsing without intermediate strings,
// and a symbol cache so repeated symbolic values share one string.
// One csvRow backs the CSVSource; independent copies back its block
// decoders.
type csvRow struct {
	vars     []VarDef
	obs      Observation // reused between records
	fields   [][]byte    // reused field-split scratch
	quoted   []byte      // scratch for unescaping quoted fields
	symCache map[string]string
}

func newCSVRow(vars []VarDef) *csvRow {
	return &csvRow{
		vars:     vars,
		obs:      make(Observation, len(vars)),
		fields:   make([][]byte, 0, len(vars)),
		symCache: map[string]string{},
	}
}

// splitRecord splits a record (one physical line with no quotes, or a
// joined multi-line quoted record) into r.fields. Quote handling
// follows encoding/csv: a field starting with '"' runs to the closing
// quote with "" as the escape; a bare quote inside an unquoted field
// is an error.
func (r *csvRow) splitRecord(rec []byte, hasQuote bool) error {
	r.fields = r.fields[:0]
	if !hasQuote {
		for {
			i := indexByte(rec, ',')
			if i < 0 {
				r.fields = append(r.fields, rec)
				return nil
			}
			r.fields = append(r.fields, rec[:i])
			rec = rec[i+1:]
		}
	}
	r.quoted = r.quoted[:0]
	for {
		field, rest, err := r.splitQuoted(rec)
		if err != nil {
			return err
		}
		r.fields = append(r.fields, field)
		if rest == nil {
			return nil
		}
		rec = rest
	}
}

// splitQuoted consumes one field of a record known to contain quotes.
// rest is nil after the final field.
func (r *csvRow) splitQuoted(rec []byte) (field, rest []byte, err error) {
	if len(rec) == 0 || rec[0] != '"' {
		// Unquoted field: runs to the next comma; a quote inside it is
		// malformed (encoding/csv's ErrBareQuote).
		i := indexByte(rec, ',')
		f := rec
		if i >= 0 {
			f = rec[:i]
			rest = rec[i+1:]
		}
		if indexByte(f, '"') >= 0 {
			return nil, nil, errors.New(`bare " in non-quoted field`)
		}
		return f, rest, nil
	}
	// Quoted field: unescape into the shared scratch buffer.
	start := len(r.quoted)
	body := rec[1:]
	for {
		i := indexByte(body, '"')
		if i < 0 {
			return nil, nil, errors.New(`missing closing " in quoted field`)
		}
		r.quoted = append(r.quoted, body[:i]...)
		body = body[i+1:]
		if len(body) > 0 && body[0] == '"' {
			r.quoted = append(r.quoted, '"')
			body = body[1:]
			continue
		}
		// Closing quote: next must be a comma or end of record.
		switch {
		case len(body) == 0:
			return r.quoted[start:], nil, nil
		case body[0] == ',':
			return r.quoted[start:], body[1:], nil
		default:
			return nil, nil, errors.New(`extraneous " in quoted field`)
		}
	}
}

// decode parses the split fields into the reused observation.
func (r *csvRow) decode(line int) (Observation, error) {
	if len(r.fields) != len(r.vars) {
		return nil, fmt.Errorf("trace csv: line %d has %d fields, want %d", line, len(r.fields), len(r.vars))
	}
	for j, field := range r.fields {
		field = trimSpace(field)
		switch r.vars[j].Type {
		case expr.Int:
			n, ok := parseIntBytes(field)
			if !ok {
				_, err := strconv.ParseInt(string(field), 10, 64)
				return nil, fmt.Errorf("trace csv: line %d, variable %q: %w", line, r.vars[j].Name, err)
			}
			r.obs[j] = expr.IntVal(n)
		case expr.Bool:
			b, ok := parseBoolBytes(field)
			if !ok {
				_, err := strconv.ParseBool(string(field))
				return nil, fmt.Errorf("trace csv: line %d, variable %q: %w", line, r.vars[j].Name, err)
			}
			r.obs[j] = expr.BoolVal(b)
		case expr.Sym:
			s, ok := r.symCache[string(field)]
			if !ok {
				s = string(field)
				r.symCache[s] = s
			}
			r.obs[j] = expr.SymVal(s)
		}
	}
	return r.obs, nil
}

// trimSpace strips leading and trailing whitespace with the same
// vocabulary strings.TrimSpace used in the old decoder (full Unicode,
// with bytes.TrimSpace's ASCII fast path).
func trimSpace(b []byte) []byte { return bytes.TrimSpace(b) }

func indexByte(b []byte, c byte) int { return bytes.IndexByte(b, c) }

// CSVSource streams the tool's CSV trace format (see WriteCSV): a
// name:type[:role] header row, one observation per subsequent row.
// Decoding scans borrowed byte slices — zero-copy over a *Bytes input
// (mmap'd file or in-memory buffer), buffer-borrowed lines otherwise —
// with no limit on line length.
type CSVSource struct {
	sourceCloser
	ln     liner
	schema *Schema
	row    *csvRow
	line   int // physical line number, for error positions

	// raw-record id cache (IDSource): raw bytes of a seen record → the
	// id its observation interned to.
	idCache  map[string]ObsID
	idIntern *Interner

	rawScratch []byte // joined multi-line quoted records
}

// NewCSVSource reads the header and returns a source over the rows.
func NewCSVSource(r io.Reader) (*CSVSource, error) {
	s := &CSVSource{
		sourceCloser: newSourceCloser(r),
		ln:           newLiner(r),
	}
	hdr := newCSVRow(nil)
	raw, hasQuote, err := s.nextRaw()
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("trace csv: reading header: %w", err)
	}
	if err := hdr.splitRecord(raw, hasQuote); err != nil {
		return nil, fmt.Errorf("trace csv: reading header: %w", err)
	}
	vars := make([]VarDef, len(hdr.fields))
	for i, h := range hdr.fields {
		name, tyName, ok := strings.Cut(string(trimSpace(h)), ":")
		if !ok {
			return nil, fmt.Errorf("trace csv: header field %q is not name:type[:input]", h)
		}
		role := State
		if rest, roleName, hasRole := strings.Cut(tyName, ":"); hasRole {
			tyName = rest
			switch roleName {
			case "input":
				role = Input
			case "state":
				// explicit default
			default:
				return nil, fmt.Errorf("trace csv: unknown role %q in header field %q", roleName, h)
			}
		}
		var ty expr.Type
		switch tyName {
		case "int":
			ty = expr.Int
		case "bool":
			ty = expr.Bool
		case "sym":
			ty = expr.Sym
		default:
			return nil, fmt.Errorf("trace csv: unknown type %q in header field %q", tyName, h)
		}
		vars[i] = VarDef{Name: name, Type: ty, Role: role}
	}
	schema, err := NewSchema(vars...)
	if err != nil {
		return nil, fmt.Errorf("trace csv: %w", err)
	}
	s.schema = schema
	s.row = newCSVRow(vars)
	return s, nil
}

// Schema implements Source.
func (s *CSVSource) Schema() *Schema { return s.schema }

// BytesRead implements ByteSource.
func (s *CSVSource) BytesRead() int64 { return s.ln.consumed() }

// nextRaw returns the next logical record's bytes: the next non-empty
// line (with a trailing '\r' stripped), joined with its continuation
// lines when an open quoted field spans lines. The returned slice is
// borrowed and valid until the next call. hasQuote reports whether the
// record contains a '"' (selecting the slow split path).
func (s *CSVSource) nextRaw() ([]byte, bool, error) {
	for {
		line, err := s.ln.next()
		if err != nil {
			return nil, false, err
		}
		s.line++
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if len(line) == 0 {
			continue // encoding/csv skips blank lines
		}
		q := indexByte(line, '"')
		if q < 0 {
			return line, false, nil
		}
		if !openQuote(line) {
			return line, true, nil
		}
		// A quoted field continues past this line: join lines until the
		// quote closes (or input ends, which the splitter reports).
		s.rawScratch = append(s.rawScratch[:0], line...)
		for openQuote(s.rawScratch) {
			cont, err := s.ln.next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, false, err
			}
			s.line++
			if n := len(cont); n > 0 && cont[n-1] == '\r' {
				cont = cont[:n-1]
			}
			s.rawScratch = append(s.rawScratch, '\n')
			s.rawScratch = append(s.rawScratch, cont...)
		}
		return s.rawScratch, true, nil
	}
}

// openQuote reports whether the record ends inside an open quoted
// field.
func openQuote(rec []byte) bool {
	inQuote := false
	for i := 0; i < len(rec); i++ {
		c := rec[i]
		if !inQuote {
			if c == '"' {
				// Only a quote at field start opens a quoted field;
				// a stray quote mid-field is an error the splitter
				// reports, not a continuation.
				if i == 0 || rec[i-1] == ',' {
					inQuote = true
				}
			}
			continue
		}
		if c == '"' {
			if i+1 < len(rec) && rec[i+1] == '"' {
				i++ // escaped quote
				continue
			}
			inQuote = false
		}
	}
	return inQuote
}

// Next implements Source. The returned observation is reused by the
// following call.
func (s *CSVSource) Next() (Observation, error) {
	raw, hasQuote, err := s.nextRaw()
	if err != nil {
		return nil, err
	}
	return s.decodeRaw(raw, hasQuote)
}

func (s *CSVSource) decodeRaw(raw []byte, hasQuote bool) (Observation, error) {
	if err := s.row.splitRecord(raw, hasQuote); err != nil {
		return nil, fmt.Errorf("trace csv: line %d: %w", s.line, err)
	}
	return s.row.decode(s.line)
}

// NextID implements IDSource: repeated raw records skip decoding and
// interning via a byte-keyed cache, preserving exact id-assignment
// order (the cache is consulted before Intern, and filled from it).
func (s *CSVSource) NextID(in *Interner) (ObsID, error) {
	if s.idIntern != in {
		s.idIntern = in
		s.idCache = make(map[string]ObsID)
	}
	raw, hasQuote, err := s.nextRaw()
	if err != nil {
		return 0, err
	}
	if id, ok := s.idCache[string(raw)]; ok {
		return id, nil
	}
	obs, err := s.decodeRaw(raw, hasQuote)
	if err != nil {
		return 0, err
	}
	id := in.Intern(obs)
	if len(s.idCache) < idCacheMax {
		s.idCache[string(raw)] = id
	}
	return id, nil
}

// Blocks implements BlockSource: over a slice-backed input with no
// quoted fields, the remaining rows are handed out as line-aligned
// blocks of roughly target bytes.
func (s *CSVSource) Blocks(target int) (func() ([]byte, error), bool) {
	sl, ok := s.ln.(*sliceLiner)
	if !ok {
		return nil, false
	}
	rest := sl.remaining()
	for _, c := range rest {
		if c == '"' {
			// Quoted fields may span lines; block alignment on '\n'
			// would tear records. The quote scan is one pass over the
			// input, far cheaper than the decode it guards.
			return nil, false
		}
	}
	if target < 64*1024 {
		target = 64 * 1024
	}
	return func() ([]byte, error) {
		rest := sl.remaining()
		if len(rest) == 0 {
			return nil, io.EOF
		}
		n := target
		if n >= len(rest) {
			n = len(rest)
		} else {
			// Extend to the end of the current line.
			for n < len(rest) && rest[n-1] != '\n' {
				n++
			}
		}
		sl.skip(n)
		return rest[:n], nil
	}, true
}

// NewBlockDecoder implements BlockSource.
func (s *CSVSource) NewBlockDecoder() BlockDecoder {
	return &csvBlockDecoder{row: newCSVRow(s.row.vars)}
}

type csvBlockDecoder struct {
	row *csvRow
}

// Decode implements BlockDecoder. Blocks are quote-free by
// construction (Blocks refuses inputs containing quotes).
func (d *csvBlockDecoder) Decode(block []byte, emit func(Observation) error) error {
	ln := sliceLiner{data: block}
	for {
		line, err := ln.next()
		if err == io.EOF {
			return nil
		}
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if len(line) == 0 {
			continue
		}
		if err := d.row.splitRecord(line, false); err != nil {
			return fmt.Errorf("trace csv: %w", err)
		}
		obs, err := d.row.decode(0)
		if err != nil {
			return err
		}
		if err := emit(obs); err != nil {
			return err
		}
	}
}

// --- Events --------------------------------------------------------

// EventsSource streams a one-event-per-line log (schema: event:sym).
// Blank lines and lines starting with '#' are skipped. Lines of any
// length are accepted (the old Scanner path failed past 1MiB).
type EventsSource struct {
	sourceCloser
	ln     liner
	schema *Schema
	obs    Observation

	symCache map[string]string
	idCache  map[string]ObsID
	idIntern *Interner
}

// NewEventsSource returns a source over the event log.
func NewEventsSource(r io.Reader) *EventsSource {
	return &EventsSource{
		sourceCloser: newSourceCloser(r),
		ln:           newLiner(r),
		schema:       EventSchema(),
		obs:          make(Observation, 1),
		symCache:     map[string]string{},
	}
}

// Schema implements Source.
func (s *EventsSource) Schema() *Schema { return s.schema }

// BytesRead implements ByteSource.
func (s *EventsSource) BytesRead() int64 { return s.ln.consumed() }

// nextEvent returns the next non-blank, non-comment line, trimmed.
func (s *EventsSource) nextEvent() ([]byte, error) {
	for {
		line, err := s.ln.next()
		if err != nil {
			if err != io.EOF {
				return nil, fmt.Errorf("trace events: %w", err)
			}
			return nil, io.EOF
		}
		line = trimSpace(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		return line, nil
	}
}

// Next implements Source.
func (s *EventsSource) Next() (Observation, error) {
	line, err := s.nextEvent()
	if err != nil {
		return nil, err
	}
	name, ok := s.symCache[string(line)]
	if !ok {
		name = string(line)
		s.symCache[name] = name
	}
	s.obs[0] = expr.SymVal(name)
	return s.obs, nil
}

// NextID implements IDSource (event alphabets are small, so the cache
// answers almost every line).
func (s *EventsSource) NextID(in *Interner) (ObsID, error) {
	if s.idIntern != in {
		s.idIntern = in
		s.idCache = make(map[string]ObsID)
	}
	line, err := s.nextEvent()
	if err != nil {
		return 0, err
	}
	if id, ok := s.idCache[string(line)]; ok {
		return id, nil
	}
	name, ok := s.symCache[string(line)]
	if !ok {
		name = string(line)
		s.symCache[name] = name
	}
	s.obs[0] = expr.SymVal(name)
	id := in.Intern(s.obs)
	if len(s.idCache) < idCacheMax {
		s.idCache[name] = id
	}
	return id, nil
}
