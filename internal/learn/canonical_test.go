package learn

import (
	"math/rand"
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

// TestCanonicalizeMatchesBruteForce checks canonicalize against the
// lex-order walk on random small encodings (n ≤ 3 states, ≤ 3
// symbols, random segments, anchors and blocked grams, with and
// without the symmetry chain): first on a fresh encoding, then after
// addSegment and blockGram extend the same live encoding. The oracle
// runs on its own encoding built from the same constraints, so it
// shares no solver state with the encoding under test.
func TestCanonicalizeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	checked, probed := 0, 0
	for round := 0; round < 120; round++ {
		n := 1 + rng.Intn(3)
		syms := 1 + rng.Intn(3)
		order := rng.Intn(4) != 0
		var segs [][]int
		var anch []bool
		for k := 1 + rng.Intn(3); k > 0; k-- {
			segs = append(segs, randomWord(rng, syms, 1+rng.Intn(4)))
			anch = append(anch, len(anch) == 0 || rng.Intn(4) == 0)
		}
		var blocked [][]int
		for k := rng.Intn(3); k > 0; k-- {
			blocked = append(blocked, randomWord(rng, syms, 2))
		}
		e := newEncoding(n, syms, segs, anch, order)
		for _, g := range blocked {
			e.blockGram(g)
		}

		compare := func(stage string) {
			t.Helper()
			oracle := newEncoding(n, syms, e.segments, e.anchored, order)
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
			probed += e.canonicalize()
			for i := range want {
				if e.rel[i] != want[i] {
					t.Fatalf("round %d %s (n=%d syms=%d order=%v segs=%v anch=%v blocked=%v):\n got %v\nwant %v",
						round, stage, n, syms, order, e.segments, e.anchored, blocked, e.rel, want)
				}
			}
			checked++
		}

		compare("fresh")
		for step := 0; step < 3; step++ {
			if rng.Intn(2) == 0 {
				e.addSegment(randomWord(rng, syms, 1+rng.Intn(4)), rng.Intn(4) == 0)
			} else {
				g := randomWord(rng, syms, 2)
				blocked = append(blocked, g)
				e.blockGram(g)
			}
			compare("extended")
		}
	}
	if checked < 100 || probed == 0 {
		t.Fatalf("only %d satisfiable comparisons (%d probe solves); generator too tight", checked, probed)
	}
}
