package learn

import (
	"math/rand"
	"reflect"
	"testing"
)

// seqOf builds a Seq from an expanded word.
func seqOf(word []string) *Seq {
	s := NewSeq()
	for _, sym := range word {
		s.Append(sym, 1)
	}
	return s
}

// seqsOf wraps expanded symbol sequences, one run each, as the input
// GenerateModelSeqs takes.
func seqsOf(words ...[]string) []*Seq {
	out := make([]*Seq, len(words))
	for i, w := range words {
		out[i] = seqOf(w)
	}
	return out
}

func TestSeqAppendMerges(t *testing.T) {
	s := NewSeq()
	s.Append("a", 2)
	s.Append("a", 3)
	s.Append("b", 1)
	s.Append("b", 0) // no-op
	s.Append("a", 4)
	if s.Len() != 10 {
		t.Fatalf("Len = %d, want 10", s.Len())
	}
	if s.Runs() != 3 {
		t.Fatalf("Runs = %d, want 3 (adjacent equal runs must merge)", s.Runs())
	}
}

// expandWindows is the reference enumeration: every window of the
// expanded sequence in position order, with exact duplicates of the
// immediately preceding window removed (the visitor's contract).
func expandWindows(word []int32, w int) (pos []int, wins [][]int32) {
	for i := 0; i+w <= len(word); i++ {
		// Skip exactly the windows equal to their predecessor window.
		if i > 0 && reflect.DeepEqual(word[i:i+w], word[i-1:i-1+w]) {
			continue
		}
		pos = append(pos, i)
		wins = append(wins, append([]int32(nil), word[i:i+w]...))
	}
	return
}

// TestWindowsVisitorMatchesExpanded: feeding a word to winScan as
// randomly split runs visits exactly the positions and windows of the
// expanded reference, in the same order — the scanner is insensitive
// to how appends chunk a symbol run.
func TestWindowsVisitorMatchesExpanded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		word := make([]int32, n)
		// Small alphabet with occasional long runs to exercise the
		// constant-window skip.
		cur := int32(rng.Intn(3))
		for i := range word {
			if rng.Intn(3) == 0 {
				cur = int32(rng.Intn(3))
			}
			word[i] = cur
		}
		for w := 1; w <= 5; w++ {
			wantPos, wantWins := expandWindows(word, w)
			ws := newWinScan(w)
			var gotPos []int
			var gotWins [][]int32
			visit := func(pos int, win []int32) {
				gotPos = append(gotPos, pos)
				gotWins = append(gotWins, append([]int32(nil), win...))
			}
			for i := 0; i < n; {
				j := i + 1
				for j < n && word[j] == word[i] && rng.Intn(2) == 0 {
					j++
				}
				ws.feed(word[i], j-i, visit)
				i = j
			}
			if !reflect.DeepEqual(gotPos, wantPos) || !reflect.DeepEqual(gotWins, wantWins) {
				t.Fatalf("trial %d, w=%d, word %v:\n got %v %v\nwant %v %v",
					trial, w, word, gotPos, gotWins, wantPos, wantWins)
			}
		}
	}
}

func TestRLEExpand(t *testing.T) {
	s := &rleSeq{ids: []int32{0, 1, 0}, counts: []int32{3, 2, 4}, total: 9}
	got := s.expand(2, 7)
	want := []int32{0, 1, 1, 0, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("expand(2,7) = %v, want %v", got, want)
	}
	if full := s.expand(0, 9); len(full) != 9 {
		t.Fatalf("expand(0,9) has %d symbols", len(full))
	}
}

func TestGenerateModelSeqsEmpty(t *testing.T) {
	if _, err := GenerateModelSeqs(nil, Options{}); err == nil {
		t.Fatal("no error for zero sequences")
	}
	if _, err := GenerateModelSeqs([]*Seq{NewSeq()}, Options{}); err == nil {
		t.Fatal("no error for empty sequence")
	}
}
