package learn

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/sat"
)

// bruteCanonical is the oracle for canonicalize: it walks the n-state
// transition relations of e in lexicographic order (state, symbol,
// successor; false before true) and returns the first one e's solver
// accepts with every transition variable fixed, or nil when none is
// accepted. Relations with two successors for one (state, symbol) are
// skipped unsolved: the determinism clauses reject them, so skipping
// cannot change the first accepted relation.
func bruteCanonical(e *encoding) []bool {
	n, syms := e.n, e.numSyms
	// One odometer digit per (state, symbol) group, most significant
	// first. Digit 0 is "no successor" and digit d ≥ 1 is successor
	// n−d: within a group, 0…0 < 0…01 < … < 10…0 lexicographically.
	digits := make([]int, n*syms)
	rel := make([]bool, n*syms*n)
	for {
		asm := make([]sat.Lit, 0, len(rel))
		for g, d := range digits {
			for s2 := 0; s2 < n; s2++ {
				on := d != 0 && s2 == n-d
				rel[g*n+s2] = on
				v := e.tVars[g/syms][g%syms][s2]
				if on {
					asm = append(asm, sat.Pos(v))
				} else {
					asm = append(asm, sat.Neg(v))
				}
			}
		}
		if e.solver.SolveAssuming(asm...) == sat.Sat {
			return rel
		}
		g := len(digits) - 1
		for ; g >= 0; g-- {
			if digits[g]++; digits[g] <= n {
				break
			}
			digits[g] = 0
		}
		if g < 0 {
			return nil
		}
	}
}

// randomWord returns a word of the given length over syms symbols.
func randomWord(rng *rand.Rand, syms, length int) []int {
	w := make([]int, length)
	for i := range w {
		w[i] = rng.Intn(syms)
	}
	return w
}

// canonicalCase is one round of the canonicalization corpus: a random
// small encoding (n ≤ 3 states, ≤ 3 symbols, random segments, anchors
// and blocked grams, with or without the symmetry chain) and three
// random extensions of it.
type canonicalCase struct {
	n, syms int
	order   bool
	segs    [][]int
	anch    []bool
	blocked [][]int
	steps   []extendStep
}

// extendStep is one extension of a live encoding: a segment with its
// anchor flag, or, when seg is nil, a blocked gram.
type extendStep struct {
	seg    []int
	anchor bool
	gram   []int
}

func randomCanonicalCase(rng *rand.Rand) canonicalCase {
	c := canonicalCase{n: 1 + rng.Intn(3), syms: 1 + rng.Intn(3), order: rng.Intn(4) != 0}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		c.segs = append(c.segs, randomWord(rng, c.syms, 1+rng.Intn(4)))
		c.anch = append(c.anch, len(c.anch) == 0 || rng.Intn(4) == 0)
	}
	for k := rng.Intn(3); k > 0; k-- {
		c.blocked = append(c.blocked, randomWord(rng, c.syms, 2))
	}
	for step := 0; step < 3; step++ {
		if rng.Intn(2) == 0 {
			c.steps = append(c.steps, extendStep{seg: randomWord(rng, c.syms, 1+rng.Intn(4)), anchor: rng.Intn(4) == 0})
		} else {
			c.steps = append(c.steps, extendStep{gram: randomWord(rng, c.syms, 2)})
		}
	}
	return c
}

// encode builds the case's initial encoding, on spare when non-nil.
func (c canonicalCase) encode(spare *sat.Solver) *encoding {
	e := newEncoding(c.n, c.syms, c.segs, c.anch, c.order, spare)
	for _, g := range c.blocked {
		e.blockGram(g)
	}
	return e
}

// apply extends e by one step.
func (st extendStep) apply(e *encoding) {
	if st.seg != nil {
		e.addSegment(st.seg, st.anchor)
	} else {
		e.blockGram(st.gram)
	}
}

// TestCanonicalizeMatchesBruteForce checks canonicalize against the
// lex-order walk on the random corpus of canonicalCase: first on a
// fresh encoding, then after addSegment and blockGram extend the same
// live encoding. The oracle runs on its own encoding built from the
// same constraints, so it shares no solver state with the encoding
// under test.
func TestCanonicalizeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	checked, probed := 0, 0
	for round := 0; round < 120; round++ {
		c := randomCanonicalCase(rng)
		n, syms, order := c.n, c.syms, c.order
		blocked := append([][]int(nil), c.blocked...)
		e := c.encode(nil)

		compare := func(stage string) {
			t.Helper()
			oracle := newEncoding(n, syms, e.segments, e.anchored, order, nil)
			for _, g := range blocked {
				oracle.blockGram(g)
			}
			st := e.solve(time.Time{})
			if oracle.solve(time.Time{}) != st {
				t.Fatalf("round %d %s: status %v disagrees with a fresh encoding", round, stage, st)
			}
			if st != sat.Sat {
				return
			}
			want := bruteCanonical(oracle)
			if want == nil {
				t.Fatalf("round %d %s: satisfiable, but no relation accepted", round, stage)
			}
			probes, err := e.canonicalize(time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			probed += probes
			for i := range want {
				if e.rel[i] != want[i] {
					t.Fatalf("round %d %s (n=%d syms=%d order=%v segs=%v anch=%v blocked=%v):\n got %v\nwant %v",
						round, stage, n, syms, order, e.segments, e.anchored, blocked, e.rel, want)
				}
			}
			checked++
		}

		compare("fresh")
		for _, st := range c.steps {
			if st.seg == nil {
				blocked = append(blocked, st.gram)
			}
			st.apply(e)
			compare("extended")
		}
	}
	if checked < 100 || probed == 0 {
		t.Fatalf("only %d satisfiable comparisons (%d probe solves); generator too tight", checked, probed)
	}
}

// TestSpareEncodingMatchesNew: over the same corpus, an encoding built
// on a used spare solver — the previous round's, after it solved,
// canonicalized and was extended — takes the same search as one built
// on sat.New(): the same statuses, canonical relations, probe counts,
// solver Stats and learn Stats, before and after every extension.
func TestSpareEncodingMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var spare *sat.Solver
	reusedRounds, satisfiable := 0, 0
	for round := 0; round < 120; round++ {
		c := randomCanonicalCase(rng)
		if spare != nil {
			reusedRounds++
		}
		fresh, reused := c.encode(nil), c.encode(spare)
		var freshStats, reusedStats Stats
		compare := func(stage string) {
			t.Helper()
			a, b := fresh.solve(time.Time{}), reused.solve(time.Time{})
			if a != b {
				t.Fatalf("round %d %s: status %v on a spare, %v on a new solver", round, stage, b, a)
			}
			if a == sat.Sat {
				satisfiable++
				pa, errA := fresh.canonicalize(time.Time{})
				pb, errB := reused.canonicalize(time.Time{})
				if errA != nil || errB != nil {
					t.Fatalf("round %d %s: canonicalize: %v, %v", round, stage, errA, errB)
				}
				if pa != pb {
					t.Fatalf("round %d %s: %d probes on a spare, %d on a new solver", round, stage, pb, pa)
				}
				if !reflect.DeepEqual(fresh.rel, reused.rel) {
					t.Fatalf("round %d %s: canonical relation %v on a spare, %v on a new solver", round, stage, reused.rel, fresh.rel)
				}
			}
			if fresh.solver.Stats != reused.solver.Stats {
				t.Fatalf("round %d %s: solver stats %+v on a spare, %+v on a new solver", round, stage, reused.solver.Stats, fresh.solver.Stats)
			}
			fresh.addStats(&freshStats)
			reused.addStats(&reusedStats)
			if freshStats != reusedStats {
				t.Fatalf("round %d %s: learn stats %+v on a spare, %+v on a new solver", round, stage, reusedStats, freshStats)
			}
		}
		compare("fresh")
		for _, st := range c.steps {
			st.apply(fresh)
			st.apply(reused)
			compare("extended")
		}
		spare = reused.solver
	}
	if reusedRounds == 0 || satisfiable < 100 {
		t.Fatalf("%d rounds on a spare, %d satisfiable comparisons; generator too tight", reusedRounds, satisfiable)
	}
}
