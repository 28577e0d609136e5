// Run-length-encoded model learning: GenerateModelSeqs learns over RLE
// symbol sequences, so the streaming pipeline can hand the learner its
// predicate stream without ever materialising the expanded sequence.
// Resident memory is O(runs + unique segments + unique grams); on the
// long, repetition-dominated traces the paper targets, runs ≪ length.
// One window scanner, winScan, segments the batch input, collects its
// valid l-grams and keeps Live's tables current as runs arrive, so
// batch and live segmentation agree window for window.
package learn

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/automaton"
	"repro/internal/pipeline"
	"repro/internal/sat"
)

// Seq is a run-length-encoded symbol sequence under construction: the
// streaming pipeline appends one run per emitted predicate run. Symbols
// are interned locally in first-appearance order.
type Seq struct {
	syms   []string
	symID  map[string]int
	ids    []int32 // per-run local symbol ids
	counts []int32 // per-run lengths
	total  int
}

// NewSeq returns an empty sequence.
func NewSeq() *Seq {
	return &Seq{symID: map[string]int{}}
}

// InternSym returns the local id of sym, assigning the next one on
// first sight. Callers that can cache the id by a cheaper identity
// than the symbol string (the streaming pipeline keys on the interned
// predicate pointer) combine it with AppendID to skip hashing long
// predicate keys on every run.
func (s *Seq) InternSym(sym string) int {
	id, ok := s.symID[sym]
	if !ok {
		id = len(s.syms)
		s.symID[sym] = id
		s.syms = append(s.syms, sym)
	}
	return id
}

// Append appends count occurrences of sym, merging into the last run
// when the symbol matches, so runs stay maximal regardless of how the
// caller chunks its input. Runs longer than MaxInt32 are split; the
// consumers tolerate equal adjacent runs.
func (s *Seq) Append(sym string, count int) {
	if count <= 0 {
		return
	}
	s.AppendID(s.InternSym(sym), count)
}

// AppendID is Append for an id InternSym already assigned.
func (s *Seq) AppendID(id int, count int) {
	if count <= 0 {
		return
	}
	s.total += count
	if n := len(s.ids); n > 0 && s.ids[n-1] == int32(id) && int(s.counts[n-1])+count <= math.MaxInt32 {
		s.counts[n-1] += int32(count)
		return
	}
	for count > math.MaxInt32 {
		s.ids = append(s.ids, int32(id))
		s.counts = append(s.counts, math.MaxInt32)
		count -= math.MaxInt32
	}
	s.ids = append(s.ids, int32(id))
	s.counts = append(s.counts, int32(count))
}

// Len returns the expanded sequence length.
func (s *Seq) Len() int { return s.total }

// Runs returns the number of stored runs.
func (s *Seq) Runs() int { return len(s.ids) }

// cpuTime reads the process CPU clock for Stats.CPU; a variable so
// tests can substitute a deterministic clock.
var cpuTime = pipeline.CPUTime

// rleSeq is a Seq with its symbols re-interned into the global (cross-
// sequence) id space the learner uses.
type rleSeq struct {
	ids    []int32 // per-run global symbol ids
	counts []int32
	total  int
}

// expand materialises positions [lo, hi) as global symbol ids (the
// acceptance-refinement windows; rare and bounded by the refinement
// window, except in degenerate cases where it soundly grows into the
// full prefix).
func (s *rleSeq) expand(lo, hi int) []int32 {
	out := make([]int32, 0, hi-lo)
	base := 0
	for r := 0; r < len(s.ids) && base < hi; r++ {
		c := int(s.counts[r])
		from, to := lo, hi
		if from < base {
			from = base
		}
		if to > base+c {
			to = base + c
		}
		for p := from; p < to; p++ {
			out = append(out, s.ids[r])
		}
		base += c
	}
	return out
}

// walk runs the sequence through the (deterministic) automaton from
// its initial state. It returns the state the run ends in and −1, or
// the state it dead-ends in and the position of the first symbol with
// no transition. Runs the automaton self-loops on are consumed in
// O(1).
func (s *rleSeq) walk(m *automaton.NFA, symbols []string) (automaton.State, int) {
	cur := m.Initial()
	pos := 0
	for r := range s.ids {
		sym := symbols[s.ids[r]]
		c := int(s.counts[r])
		for i := 0; i < c; i++ {
			next, ok := m.Step(cur, sym)
			if !ok {
				return cur, pos
			}
			if next == cur {
				// Self-loop: the rest of the run stays put.
				pos += c - i
				break
			}
			cur = next
			pos++
		}
	}
	return cur, -1
}

// winScan enumerates the w-window visits of a sequence fed to it one
// appended run at a time, under arbitrary run splits. It visits every
// start position in increasing order except those whose window equals
// the previous position's — exactly when the trailing size+1 symbols
// are all equal — and skips the rest of a constant run in O(1).
// Position 0 is always visited (anchor correctness). Segment recording
// would dedupe the skipped windows anyway, so the first-occurrence
// order of segments, and with it the encoding, the solver decisions
// and the learned automaton, is that of a scan of the expanded
// sequence.
type winScan struct {
	win   []int32 // the last len(win) symbols, in order once n ≥ len(win)
	n     int     // total symbols consumed
	eqLen int     // trailing equal-symbol run length, capped at len(win)+1
}

func newWinScan(size int) *winScan {
	return &winScan{win: make([]int32, size)}
}

// feed consumes one appended run. visit's win slice is the scanner's
// own; copy what you keep.
func (ws *winScan) feed(id int32, count int, visit func(start int, win []int32)) {
	size := len(ws.win)
	for ; count > 0; count-- {
		if ws.n > 0 && ws.win[size-1] == id {
			if ws.eqLen > size {
				// Every remaining position of this run sits strictly
				// inside an equal-symbol run longer than size: all
				// skipped, and the window stays all-id.
				ws.n += count
				return
			}
			ws.eqLen++
		} else {
			ws.eqLen = 1
		}
		for k := 1; k < size; k++ { // cheaper than copy for a few symbols
			ws.win[k-1] = ws.win[k]
		}
		ws.win[size-1] = id
		ws.n++
		if ws.n >= size && ws.eqLen <= size {
			visit(ws.n-size, ws.win)
		}
	}
}

// scan runs a winScan of window size w over the whole sequence.
func (s *rleSeq) scan(w int, visit func(start int, win []int32)) {
	if w <= 0 {
		return
	}
	ws := newWinScan(w)
	for r, id := range s.ids {
		ws.feed(id, int(s.counts[r]), visit)
	}
}

// GenerateModelSeqs learns one automaton from several run-length-
// encoded symbol sequences (the canonical predicate keys, or raw event
// names for event traces) — independent runs of the same system, all
// starting in the same initial state. Segments, valid l-grams and
// acceptance constraints are the unions over the runs; the learned
// model accepts every run from its initial state. This implements the
// multi-run learning the paper's prospects section motivates
// (exercising the system several ways to close coverage holes).
func GenerateModelSeqs(inSeqs []*Seq, opts Options) (*Result, error) {
	res, _, err := generate(inSeqs, opts, nil)
	return res, err
}

// generate is GenerateModelSeqs that also returns the successful
// search, for Live to continue, and builds its first encoding on spare
// when non-nil (the caller must not use spare afterwards).
func generate(inSeqs []*Seq, opts Options, spare *sat.Solver) (*Result, *search, error) {
	opts = opts.withDefaults()
	if len(inSeqs) == 0 {
		return nil, nil, errors.New("learn: no input sequences")
	}
	for _, q := range inSeqs {
		if q == nil || q.total == 0 {
			return nil, nil, errors.New("learn: empty input sequence")
		}
	}
	start := time.Now()
	cpuStart := cpuTime()

	// Re-intern symbols into one global table, in first-appearance
	// order across the sequences. Each sequence's local ids were
	// themselves assigned in first-appearance order, so interning the
	// local symbol table in id order reproduces exactly the order an
	// expanded scan would intern in — and the per-run remap is then an
	// O(1) array index instead of a map lookup on a long predicate key.
	symID := map[string]int{}
	var symbols []string
	seqs := make([]*rleSeq, len(inSeqs))
	for t, in := range inSeqs {
		local := make([]int32, len(in.syms))
		for lid, sym := range in.syms {
			gid, ok := symID[sym]
			if !ok {
				gid = len(symbols)
				symID[sym] = gid
				symbols = append(symbols, sym)
			}
			local[lid] = int32(gid)
		}
		ids := make([]int32, len(in.ids))
		for i, lid := range in.ids {
			ids[i] = local[lid]
		}
		seqs[t] = &rleSeq{ids: ids, counts: in.counts, total: in.total}
	}
	s := newSearch(opts, symbols, symID, seqs)
	if opts.Timeout > 0 {
		s.deadline = start.Add(opts.Timeout)
	}

	// Segment the sequences (Algorithm 1 line 16). Every sequence's
	// prefix window is anchored: the encoding pins its first slot to
	// state 0, fixing the shared initial state.
	maxW := 0
	for _, q := range seqs {
		w := min(opts.Window, q.total)
		maxW = max(maxW, w)
		if opts.Segmented {
			q.scan(w, func(pos int, win []int32) { s.record(win, pos == 0) })
		} else {
			// Non-segmented baseline: the whole sequence is one
			// segment, so this mode is O(length) resident by design.
			s.record(q.expand(0, q.total), true)
		}
	}
	s.acceptWindow = 2 * maxW

	// Valid l-grams (the set P_l of Algorithm 1 line 42), unioned
	// over the sequences. The scan skips only repeats of the previous
	// gram, so the set is complete.
	l := opts.ComplianceLen
	for _, q := range seqs {
		q.scan(l, func(_ int, win []int32) {
			s.keyBuf = appendIntsKey32(s.keyBuf[:0], win)
			if !s.validGrams[string(s.keyBuf)] {
				// Insert materialises the key string; the dominant
				// already-seen case stays allocation-free.
				s.validGrams[string(s.keyBuf)] = true
			}
		})
	}

	finish := func() *Result {
		s.stats.Duration = time.Since(start)
		s.stats.CPU = cpuTime() - cpuStart
		return &Result{Stats: s.stats}
	}
	for n := opts.StartStates; n <= opts.MaxStates; n++ {
		s.encode(n, spare)
		m, err := s.refine()
		if err == errNeedGrow {
			spare = s.enc.solver
			continue
		}
		res := finish()
		if err != nil {
			return res, nil, err
		}
		res.Automaton, res.AcceptsInput = m, true
		return res, s, nil
	}
	return finish(), nil, fmt.Errorf("%w (max %d states, %d segments)", ErrNoAutomaton, opts.MaxStates, len(s.segments))
}
