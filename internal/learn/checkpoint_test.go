package learn

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestSeqStateRoundTrip(t *testing.T) {
	s := NewSeq()
	for _, r := range []struct {
		sym string
		n   int
	}{{"a", 3}, {"b", 1}, {"a", 2}, {"c", 5}} {
		s.Append(r.sym, r.n)
	}
	st := s.State()
	rebuilt, err := NewSeqFromState(st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rebuilt.State(), st) {
		t.Errorf("round trip changed state:\nbefore %+v\nafter  %+v", st, rebuilt.State())
	}
	if rebuilt.Len() != s.Len() || rebuilt.Runs() != s.Runs() {
		t.Errorf("round trip changed shape: len %d/%d runs %d/%d",
			rebuilt.Len(), s.Len(), rebuilt.Runs(), s.Runs())
	}
	// The snapshot must not alias the live sequence.
	s.Append("a", 1)
	if len(st.IDs) != 4 {
		t.Error("State aliases the live sequence")
	}
}

func TestNewSeqFromStateRejectsCorruption(t *testing.T) {
	cases := map[string]*SeqState{
		"nil":              nil,
		"length mismatch":  {Syms: []string{"a"}, IDs: []int32{0, 0}, Counts: []int32{1}},
		"duplicate symbol": {Syms: []string{"a", "a"}, IDs: []int32{0}, Counts: []int32{1}},
		"id out of range":  {Syms: []string{"a"}, IDs: []int32{1}, Counts: []int32{1}},
		"negative id":      {Syms: []string{"a"}, IDs: []int32{-1}, Counts: []int32{1}},
		"zero count":       {Syms: []string{"a"}, IDs: []int32{0}, Counts: []int32{0}},
	}
	for name, st := range cases {
		if _, err := NewSeqFromState(st); err == nil {
			t.Errorf("%s: NewSeqFromState accepted it", name)
		}
	}
}

// TestResumeFromEveryRound is the learn-stage half of the resume
// determinism argument: capture the refinement state at every solver
// round of a baseline search, then restart a fresh search from each
// captured state and require the identical automaton. If any round's
// snapshot were missing state the restart would diverge (different N,
// different model, or a refinement loop).
func TestResumeFromEveryRound(t *testing.T) {
	P := repeatPattern(6, 3)
	var states []*CheckpointState
	base, err := GenerateModelSeqs(seqsOf(P), Options{
		Segmented: true,
		Checkpoint: func(st *CheckpointState) error {
			states = append(states, st)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(states) < 2 {
		t.Fatalf("baseline made %d solver rounds; need at least 2 to test resume", len(states))
	}
	want := base.Automaton.String()

	for i, st := range states {
		res, err := GenerateModelSeqs(seqsOf(P), Options{Segmented: true, Resume: st})
		if err != nil {
			t.Fatalf("resume from round %d (N=%d): %v", i, st.N, err)
		}
		if got := res.Automaton.String(); got != want {
			t.Errorf("resume from round %d (N=%d) diverged:\nwant:\n%s\ngot:\n%s", i, st.N, want, got)
		}
	}
}

// TestResumeRejectsBadGramLength: every gram a search blocks has the
// compliance length l, so a resumed gram of another length is corrupt.
// Blocking a k-gram enumerates N^(k+1) state paths before any
// deadline check, so resume must refuse it before building an encoding:
// a 12-gram at N = 5 would otherwise run out of memory.
func TestResumeRejectsBadGramLength(t *testing.T) {
	P := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, k := range []int{3, 1, 12} {
		st := &CheckpointState{
			N:        5,
			Blocked:  [][]int{make([]int, k)},
			Segments: [][]int{{0, 1, 2}},
			Anchored: []bool{true},
		}
		start := time.Now()
		_, err := GenerateModelSeqs(seqsOf(P), Options{
			Segmented: true,
			Timeout:   2 * time.Second,
			Resume:    st,
		})
		if err == nil {
			t.Fatalf("resume accepted a %d-gram at l = 2", k)
		}
		if !strings.HasPrefix(err.Error(), "learn: resume blocked gram 0 has length") {
			t.Fatalf("%d-gram: got %v, want a learn: resume error", k, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%d-gram: rejection took %v", k, d)
		}
	}
}

// TestCheckpointAbortsSearch: a checkpoint hook error (e.g. disk full)
// aborts the search immediately rather than learning on with crash
// safety silently gone.
func TestCheckpointAbortsSearch(t *testing.T) {
	P := repeatPattern(4, 2)
	boom := errTest("checkpoint sink failed")
	_, err := GenerateModelSeqs(seqsOf(P), Options{
		Segmented:  true,
		Checkpoint: func(*CheckpointState) error { return boom },
	})
	if err == nil {
		t.Fatal("search ignored the checkpoint error")
	}
}

type errTest string

func (e errTest) Error() string { return string(e) }
