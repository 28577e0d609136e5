package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/expr"
)

// VCD support: hardware simulators and emulators dump waveforms as
// IEEE 1364 value change dumps, and the paper's motivation —
// transaction-level models of HW/SW interaction learned from virtual-
// platform runs — makes VCD a first-class trace source. ReadVCD
// samples selected signals into a Trace: one observation per timestamp
// at which any watched signal changes, with unchanged signals holding
// their previous value.

// VCDSignal describes one declared signal of a VCD file.
type VCDSignal struct {
	ID    string // the short identifier code used in the change section
	Name  string // hierarchical name, e.g. "top.fifo.count"
	Width int    // bits
}

// ReadVCD parses a value change dump and samples the named signals
// into a trace. Signal names match the declared hierarchical name
// (scopes joined with '.') or, as a convenience, its last component
// when unambiguous. An empty signals list watches every declared
// signal. One-bit signals become Bool variables; buses become Int
// variables (two's-complement interpretation is not applied: bus
// values are parsed as unsigned). Unknown/high-impedance bits (x, z)
// are read as 0, the usual four-to-two-state collapse.
func ReadVCD(r io.Reader, signals []string) (*Trace, error) {
	src, err := NewVCDSource(r, signals)
	if err != nil {
		return nil, err
	}
	tr, err := Collect(src)
	if err != nil {
		return nil, err
	}
	if tr.Len() == 0 {
		return nil, fmt.Errorf("vcd: no value changes for the watched signals")
	}
	return tr, nil
}

// VCDSignals lists the signals declared in a VCD header, for tooling
// that lets a user pick what to observe.
func VCDSignals(r io.Reader) ([]VCDSignal, error) {
	p := &vcdParser{
		br:     bufio.NewReader(r),
		byID:   map[string][]int{},
		byName: map[string]int{},
	}
	if err := p.parseHeader(); err != nil {
		return nil, err
	}
	return p.signals, nil
}

type vcdParser struct {
	br      *bufio.Reader
	signals []VCDSignal
	scope   []string

	// selection state
	watch  []int            // indices into signals, in schema order
	byID   map[string][]int // id code → watch positions
	byName map[string]int
	schema *Schema

	tok []byte // scratch for tokenBytes
}

// parseHeader consumes declarations through $enddefinitions.
func (p *vcdParser) parseHeader() error {
	for {
		tok, err := p.token()
		if err != nil {
			if err == io.EOF {
				return fmt.Errorf("vcd: unexpected EOF in header")
			}
			return err
		}
		switch tok {
		case "$scope":
			// $scope module name $end
			if _, err := p.token(); err != nil { // scope type
				return err
			}
			name, err := p.token()
			if err != nil {
				return err
			}
			p.scope = append(p.scope, name)
			if err := p.expectEnd(); err != nil {
				return err
			}
		case "$upscope":
			if len(p.scope) > 0 {
				p.scope = p.scope[:len(p.scope)-1]
			}
			if err := p.expectEnd(); err != nil {
				return err
			}
		case "$var":
			// $var type width id name [range] $end
			if _, err := p.token(); err != nil { // var type
				return err
			}
			widthTok, err := p.token()
			if err != nil {
				return err
			}
			width, err := strconv.Atoi(widthTok)
			if err != nil || width <= 0 {
				return fmt.Errorf("vcd: bad width %q", widthTok)
			}
			id, err := p.token()
			if err != nil {
				return err
			}
			name, err := p.token()
			if err != nil {
				return err
			}
			full := name
			if len(p.scope) > 0 {
				full = strings.Join(p.scope, ".") + "." + name
			}
			p.signals = append(p.signals, VCDSignal{ID: id, Name: full, Width: width})
			// Consume tokens (possibly a bit range) until $end.
			for {
				t, err := p.token()
				if err != nil {
					return err
				}
				if t == "$end" {
					break
				}
			}
		case "$enddefinitions":
			if err := p.expectEnd(); err != nil {
				return err
			}
			return nil
		default:
			if strings.HasPrefix(tok, "$") {
				// Skip sections like $date, $version, $timescale,
				// $comment.
				for {
					t, err := p.token()
					if err != nil {
						return err
					}
					if t == "$end" {
						break
					}
				}
			}
			// Stray tokens before $enddefinitions are ignored.
		}
	}
}

func (p *vcdParser) expectEnd() error {
	t, err := p.token()
	if err != nil {
		return err
	}
	if t != "$end" {
		return fmt.Errorf("vcd: expected $end, got %q", t)
	}
	return nil
}

// selectSignals resolves the requested names and builds the trace
// schema.
func (p *vcdParser) selectSignals(names []string) error {
	if len(p.signals) == 0 {
		return fmt.Errorf("vcd: no signals declared")
	}
	if len(names) == 0 {
		for i := range p.signals {
			p.watch = append(p.watch, i)
		}
	} else {
		// Index by full name and by unambiguous last component.
		byFull := map[string]int{}
		byLast := map[string]int{}
		lastDup := map[string]bool{}
		for i, s := range p.signals {
			byFull[s.Name] = i
			last := s.Name
			if j := strings.LastIndexByte(last, '.'); j >= 0 {
				last = last[j+1:]
			}
			if _, dup := byLast[last]; dup {
				lastDup[last] = true
			}
			byLast[last] = i
		}
		// A schema names each signal by its sanitized name, so that
		// form selects the signal too: a model's schema names select
		// the signals it was learned from.
		for i, s := range p.signals {
			if _, ok := byFull[sanitizeVCDName(s.Name)]; !ok {
				byFull[sanitizeVCDName(s.Name)] = i
			}
		}
		for _, name := range names {
			if i, ok := byFull[name]; ok {
				p.watch = append(p.watch, i)
				continue
			}
			if i, ok := byLast[name]; ok && !lastDup[name] {
				p.watch = append(p.watch, i)
				continue
			}
			if lastDup[name] {
				return fmt.Errorf("vcd: signal name %q is ambiguous; use the full hierarchical name", name)
			}
			return fmt.Errorf("vcd: signal %q not declared", name)
		}
	}

	vars := make([]VarDef, len(p.watch))
	for pos, i := range p.watch {
		s := p.signals[i]
		ty := expr.Int
		if s.Width == 1 {
			ty = expr.Bool
		}
		vars[pos] = VarDef{Name: sanitizeVCDName(s.Name), Type: ty}
		p.byID[s.ID] = append(p.byID[s.ID], pos)
	}
	schema, err := NewSchema(vars...)
	if err != nil {
		return fmt.Errorf("vcd: %w", err)
	}
	p.schema = schema
	return nil
}

// sanitizeVCDName rewrites a hierarchical signal name into a predicate
// identifier (the expression language accepts letters, digits, '_'
// and '.').
func sanitizeVCDName(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r == '.' || r == '_' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z'):
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// VCDSource streams the value-change section of a VCD file as one
// observation per timestamp with changes to watched signals (the same
// sampling ReadVCD materialises). The observation buffer is reused
// between Next calls.
type VCDSource struct {
	sourceCloser
	p       *vcdParser
	bytes   *countingReader
	cur     Observation
	bits    []byte // scratch for a change's value bits
	dirty   bool
	started bool
	done    bool
}

// NewVCDSource parses the VCD header, resolves the watched signals
// (empty watches all; see ReadVCD for the matching rules) and returns
// a source over the value changes.
func NewVCDSource(r io.Reader, signals []string) (*VCDSource, error) {
	bytes := &countingReader{r: r}
	p := &vcdParser{
		br:     bufio.NewReader(bytes),
		byID:   map[string][]int{},
		byName: map[string]int{},
	}
	if err := p.parseHeader(); err != nil {
		return nil, err
	}
	if err := p.selectSignals(signals); err != nil {
		return nil, err
	}
	cur := make(Observation, p.schema.Len())
	for i := range cur {
		if p.schema.Var(i).Type == expr.Bool {
			cur[i] = expr.BoolVal(false)
		} else {
			cur[i] = expr.IntVal(0)
		}
	}
	return &VCDSource{sourceCloser: newSourceCloser(r), p: p, bytes: bytes, cur: cur}, nil
}

// Schema implements Source.
func (s *VCDSource) Schema() *Schema { return s.p.schema }

// BytesRead implements ByteSource.
func (s *VCDSource) BytesRead() int64 { return s.bytes.BytesRead() }

// apply folds one value change into the current observation.
func (s *VCDSource) apply(positions []int, bits []byte) error {
	for _, pos := range positions {
		if s.p.schema.Var(pos).Type == expr.Bool {
			s.cur[pos] = expr.BoolVal(len(bits) == 1 && bits[0] == '1')
		} else {
			v, err := parseVCDBits(bits)
			if err != nil {
				return err
			}
			s.cur[pos] = expr.IntVal(v)
		}
		s.dirty = true
	}
	return nil
}

// Next implements Source: it consumes value-change tokens until a
// timestamp boundary completes an observation.
func (s *VCDSource) Next() (Observation, error) {
	if s.done {
		return nil, io.EOF
	}
	p := s.p
	for {
		tok, err := p.tokenBytes()
		if err == io.EOF {
			s.done = true
			if s.started && s.dirty {
				s.dirty = false
				return s.cur, nil
			}
			return nil, io.EOF
		}
		if err != nil {
			return nil, err
		}
		switch {
		case tok[0] == '#':
			emit := s.started && s.dirty
			s.started = true
			if emit {
				s.dirty = false
				return s.cur, nil
			}
		case isDumpSection(tok):
			s.started = true // initial snapshot counts as a timestamp
		case string(tok) == "$end":
			// end of a dump section
		case tok[0] == '$':
			// Skip unknown sections. The scratch token is reused, so the
			// section keyword need not survive the scan.
			for {
				t, err := p.tokenBytes()
				if err != nil {
					return nil, fmt.Errorf("vcd: %w", err)
				}
				if string(t) == "$end" {
					break
				}
			}
		case tok[0] == 'b' || tok[0] == 'B':
			// The bus bits live in the scratch buffer the id token will
			// overwrite; stash them first.
			s.bits = append(s.bits[:0], tok[1:]...)
			id, err := p.tokenBytes()
			if err != nil {
				return nil, fmt.Errorf("vcd: bus change missing id: %w", err)
			}
			if positions, ok := p.byID[string(id)]; ok {
				if err := s.apply(positions, s.bits); err != nil {
					return nil, err
				}
			}
		case tok[0] == 'r' || tok[0] == 'R':
			// Real change: consume the id, unsupported as a variable.
			if _, err := p.tokenBytes(); err != nil {
				return nil, fmt.Errorf("vcd: real change missing id: %w", err)
			}
		case tok[0] == '0' || tok[0] == '1' || tok[0] == 'x' || tok[0] == 'X' || tok[0] == 'z' || tok[0] == 'Z':
			// Scalar change: value and id are glued.
			if len(tok) < 2 {
				return nil, fmt.Errorf("vcd: malformed scalar change %q", tok)
			}
			if positions, ok := p.byID[string(tok[1:])]; ok {
				s.bits = append(s.bits[:0], lowerBit(tok[0]))
				if err := s.apply(positions, s.bits); err != nil {
					return nil, err
				}
			}
		default:
			return nil, fmt.Errorf("vcd: unexpected token %q in change section", tok)
		}
	}
}

// isDumpSection matches the dump-control keywords that open an
// observation snapshot.
func isDumpSection(tok []byte) bool {
	switch string(tok) {
	case "$dumpvars", "$dumpall", "$dumpon", "$dumpoff":
		return true
	}
	return false
}

// lowerBit lower-cases a scalar value character (X→x, Z→z).
func lowerBit(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}

// parseVCDBits parses a binary bus value; x and z bits collapse to 0.
func parseVCDBits(bits []byte) (int64, error) {
	if len(bits) == 0 {
		return 0, fmt.Errorf("vcd: empty bus value")
	}
	if len(bits) > 63 {
		return 0, fmt.Errorf("vcd: bus value %q wider than 63 bits", bits)
	}
	var v int64
	for _, r := range bits {
		v <<= 1
		switch r {
		case '1':
			v |= 1
		case '0', 'x', 'X', 'z', 'Z':
		default:
			return 0, fmt.Errorf("vcd: bad bit %q in bus value %q", r, bits)
		}
	}
	return v, nil
}

// token returns the next whitespace-delimited token as a string (used
// by the header parser, where tokens are retained).
func (p *vcdParser) token() (string, error) {
	b, err := p.tokenBytes()
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// tokenBytes returns the next whitespace-delimited token borrowed from
// the parser's scratch buffer: valid only until the following call.
// The change-section decoder runs on these, so steady-state decoding
// allocates no per-token strings.
func (p *vcdParser) tokenBytes() ([]byte, error) {
	p.tok = p.tok[:0]
	// Skip whitespace.
	for {
		c, err := p.br.ReadByte()
		if err != nil {
			return nil, err
		}
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			p.tok = append(p.tok, c)
			break
		}
	}
	for {
		c, err := p.br.ReadByte()
		if err == io.EOF {
			return p.tok, nil
		}
		if err != nil {
			return nil, err
		}
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			return p.tok, nil
		}
		p.tok = append(p.tok, c)
	}
}
