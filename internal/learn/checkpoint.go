// Learn-stage checkpointing: CheckpointState captures the refinement
// state of a GenerateModelSeqs search at a solver-round boundary, and
// SeqState serialises the RLE input sequences themselves. Both are
// plain serialisable data; internal/checkpoint embeds them in its
// snapshot files.
//
// Resume determinism: a resumed search rebuilds its encoding from
// scratch at the checkpointed (N, segments, anchored, blocked), with
// none of the interrupted solver's learned clauses. That is
// byte-identical to continuing the uninterrupted run because models
// are only ever taken after lex-least canonicalisation, whose result
// depends on the constraint set alone (incremental, scratch and
// resumed searches all extract the same automaton), and UNSAT verdicts
// are semantic facts independent of the solver state that produced
// them.
package learn

import (
	"errors"
	"fmt"
	"math"
)

// SeqState is the serialisable form of a Seq: symbols in local
// first-appearance id order plus the run arrays.
type SeqState struct {
	Syms   []string `json:"syms"`
	IDs    []int32  `json:"ids"`
	Counts []int32  `json:"counts"`
}

// State snapshots the sequence. The returned slices are fresh copies.
func (s *Seq) State() *SeqState {
	return &SeqState{
		Syms:   append([]string(nil), s.syms...),
		IDs:    append([]int32(nil), s.ids...),
		Counts: append([]int32(nil), s.counts...),
	}
}

// NewSeqFromState rebuilds a Seq from a snapshot, revalidating the
// invariants Append maintains (ids in range, positive run lengths,
// distinct symbols) so a corrupt checkpoint fails here rather than
// deep inside the learner.
func NewSeqFromState(st *SeqState) (*Seq, error) {
	if st == nil {
		return nil, errors.New("learn: nil sequence state")
	}
	if len(st.IDs) != len(st.Counts) {
		return nil, fmt.Errorf("learn: sequence state has %d run ids, %d run counts", len(st.IDs), len(st.Counts))
	}
	s := &Seq{symID: make(map[string]int, len(st.Syms))}
	for i, sym := range st.Syms {
		if _, dup := s.symID[sym]; dup {
			return nil, fmt.Errorf("learn: sequence state repeats symbol %q", sym)
		}
		s.symID[sym] = i
		s.syms = append(s.syms, sym)
	}
	for i, id := range st.IDs {
		if id < 0 || int(id) >= len(st.Syms) {
			return nil, fmt.Errorf("learn: sequence state run %d references symbol %d of %d", i, id, len(st.Syms))
		}
		c := st.Counts[i]
		if c <= 0 {
			return nil, fmt.Errorf("learn: sequence state run %d has count %d", i, c)
		}
		if s.total > math.MaxInt-int(c) {
			return nil, fmt.Errorf("learn: sequence state length overflows at run %d", i)
		}
		s.ids = append(s.ids, id)
		s.counts = append(s.counts, c)
		s.total += int(c)
	}
	return s, nil
}

// CheckpointState is the refinement state of a model search at the top
// of a solver round, before that round's solver call is counted: the
// current state bound N, the compliance-refinement count within N, the
// acceptance-refinement window length, the accumulated blocked grams,
// and the full segment table (base windows plus acceptance additions)
// with anchor flags, in first-record order. Replaying the segment
// table through segment recording reproduces the segment index
// exactly, so a resumed search encodes the same CNF the interrupted
// one would have.
type CheckpointState struct {
	N            int     `json:"n"`
	Refinements  int     `json:"refinements"`
	AcceptWindow int     `json:"accept_window"`
	Blocked      [][]int `json:"blocked,omitempty"`
	Segments     [][]int `json:"segments"`
	Anchored     []bool  `json:"anchored"`
	Stats        Stats   `json:"stats"`
}

// copyInts deep-copies a slice of int slices (checkpoint snapshots
// must not alias the live, still-growing refinement state).
func copyInts(src [][]int) [][]int {
	if src == nil {
		return nil
	}
	out := make([][]int, len(src))
	for i, xs := range src {
		out[i] = append([]int(nil), xs...)
	}
	return out
}

// resume restores a checkpointed refinement state into a fresh search.
// The segment table is replayed in its first-record order, so the
// dedup index, ids and anchor flags come out exactly as the
// interrupted run left them.
func (s *search) resume(st *CheckpointState) error {
	if len(st.Segments) != len(st.Anchored) {
		return fmt.Errorf("learn: resume state has %d segments, %d anchor flags", len(st.Segments), len(st.Anchored))
	}
	var win []int32
	for i, seg := range st.Segments {
		win = win[:0]
		for _, id := range seg {
			if id < 0 || id >= len(s.symbols) {
				return fmt.Errorf("learn: resume segment %d references symbol %d of %d", i, id, len(s.symbols))
			}
			win = append(win, int32(id))
		}
		s.record(win, st.Anchored[i])
	}
	for i, g := range st.Blocked {
		// Blocking a gram enumerates N^(len+1) state paths, so a
		// wrong length must fail here, not in the encoder.
		if len(g) != s.opts.ComplianceLen {
			return fmt.Errorf("learn: resume blocked gram %d has length %d, want the compliance length %d", i, len(g), s.opts.ComplianceLen)
		}
		for _, id := range g {
			if id < 0 || id >= len(s.symbols) {
				return fmt.Errorf("learn: resume blocked gram %d references symbol %d of %d", i, id, len(s.symbols))
			}
		}
	}
	s.block(copyInts(st.Blocked))
	s.stats = st.Stats
	if st.AcceptWindow > 0 {
		s.acceptWindow = st.AcceptWindow
	}
	return nil
}
