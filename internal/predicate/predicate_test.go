package predicate

import (
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/trace"
)

func intTrace(t *testing.T, vals ...int64) *trace.Trace {
	t.Helper()
	tr := trace.New(trace.MustSchema(trace.VarDef{Name: "x", Type: expr.Int}))
	for _, v := range vals {
		tr.MustAppend(trace.Observation{expr.IntVal(v)})
	}
	return tr
}

func keys(ps []*Predicate) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Key
	}
	return out
}

func TestCounterAscending(t *testing.T) {
	tr := intTrace(t, 1, 2, 3, 4, 5)
	g, err := NewGenerator(tr.Schema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Window() != 3 {
		t.Fatalf("default window = %d, want 3", g.Window())
	}
	ps, err := g.Sequence(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 3 {
		t.Fatalf("sequence length %d, want 3 (n+1-w)", len(ps))
	}
	for i, p := range ps {
		if p.Key != "x' = x + 1" {
			t.Errorf("p%d = %q, want x' = x + 1", i, p.Key)
		}
		if p != ps[0] {
			t.Errorf("predicates not interned: p%d != p0", i)
		}
	}
}

func TestCounterTurningPointsSoundAndStable(t *testing.T) {
	// 1..5..1..5: ascending, peak, descending, trough predicates.
	vals := []int64{1, 2, 3, 4, 5, 4, 3, 2, 1, 2, 3, 4, 5, 4, 3, 2, 1}
	tr := intTrace(t, vals...)
	g, err := NewGenerator(tr.Schema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := g.Sequence(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Soundness: every predicate holds on its own window.
	for i, p := range ps {
		if err := Verify(p, tr.Slice(i, i+g.Window())); err != nil {
			t.Errorf("window %d: %v", i, err)
		}
	}
	// Stability: the alphabet has exactly 4 predicates (up, peak,
	// down, trough) and the second cycle reuses the first cycle's.
	distinct := map[string]bool{}
	for _, p := range ps {
		distinct[p.Key] = true
	}
	if len(distinct) != 4 {
		t.Errorf("alphabet size %d, want 4: %v", len(distinct), keys(ps))
	}
	// Period: predicate at i and i+8 must match (cycle length 8).
	for i := 0; i+8 < len(ps); i++ {
		if ps[i] != ps[i+8] {
			t.Errorf("predicate %d (%q) != predicate %d (%q)", i, ps[i].Key, i+8, ps[i+8].Key)
		}
	}
	if len(g.Alphabet()) != 4 {
		t.Errorf("Alphabet() size %d, want 4", len(g.Alphabet()))
	}
}

func TestEventTraceGuards(t *testing.T) {
	tr := trace.FromEvents([]string{"enable", "address", "configure", "stop", "disable"})
	g, err := NewGenerator(tr.Schema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Window() != 2 {
		t.Fatalf("event-schema default window = %d, want 2", g.Window())
	}
	ps, err := g.Sequence(tr)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"event = 'enable'", "event = 'address'", "event = 'configure'", "event = 'stop'"}
	got := keys(ps)
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("p%d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestMixedSchemaSerialStyle(t *testing.T) {
	schema := trace.MustSchema(
		trace.VarDef{Name: "event", Type: expr.Sym},
		trace.VarDef{Name: "x", Type: expr.Int},
	)
	tr := trace.New(schema)
	add := func(ev string, x int64) {
		tr.MustAppend(trace.Observation{expr.SymVal(ev), expr.IntVal(x)})
	}
	// Two writes then two reads.
	add("write", 0)
	add("write", 1)
	add("write", 2)
	add("read", 3)
	add("read", 2)
	add("read", 1)
	g, err := NewGenerator(schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := g.Sequence(tr)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		if err := Verify(p, tr.Slice(i, i+g.Window())); err != nil {
			t.Errorf("window %d: %v", i, err)
		}
	}
	// Uniform write window yields guard + increment.
	if ps[0].Key != "event = 'write' && x' = x + 1" {
		t.Errorf("p0 = %q", ps[0].Key)
	}
	// Uniform read window yields guard + decrement.
	last := ps[len(ps)-1]
	if last.Key != "event = 'read' && x' = x - 1" {
		t.Errorf("last = %q", last.Key)
	}
	// The mixed window (write then read) has no event guard but must
	// still describe x soundly (checked above) and branch on the event.
	found := false
	for _, p := range ps {
		if p != ps[0] && p != last {
			found = true
		}
	}
	if !found {
		t.Error("no mixed-window predicate generated")
	}
}

func TestMemoisation(t *testing.T) {
	vals := make([]int64, 0, 64)
	for c := 0; c < 8; c++ {
		for v := int64(1); v <= 4; v++ {
			vals = append(vals, v)
		}
		for v := int64(3); v >= 1; v-- {
			vals = append(vals, v)
		}
	}
	tr := intTrace(t, vals...)
	g, _ := NewGenerator(tr.Schema(), Options{})
	if _, err := g.Sequence(tr); err != nil {
		t.Fatal(err)
	}
	if g.Stats().MemoHits == 0 {
		t.Error("no memo hits on a periodic trace")
	}
	if g.Stats().Windows != tr.Len()+1-g.Window() {
		t.Errorf("windows = %d, want %d", g.Stats().Windows, tr.Len()+1-g.Window())
	}
	// Without memoisation, every window is rebuilt but results agree.
	g2, _ := NewGenerator(tr.Schema(), Options{NoMemo: true})
	ps2, err := g2.Sequence(tr)
	if err != nil {
		t.Fatal(err)
	}
	g3, _ := NewGenerator(tr.Schema(), Options{})
	ps3, _ := g3.Sequence(tr)
	if len(ps2) != len(ps3) {
		t.Fatal("length mismatch")
	}
	for i := range ps2 {
		if ps2[i].Key != ps3[i].Key {
			t.Errorf("window %d: %q (no memo) vs %q (memo)", i, ps2[i].Key, ps3[i].Key)
		}
	}
	if g2.Stats().MemoHits != 0 {
		t.Error("NoMemo still hit the memo")
	}
}

func TestSeedReuseStabilisesAlphabet(t *testing.T) {
	// With reuse disabled the alphabet can only grow or stay equal.
	vals := []int64{1, 2, 3, 4, 5, 4, 3, 2, 1, 2, 3, 4, 5, 4, 3, 2, 1}
	tr := intTrace(t, vals...)
	gReuse, _ := NewGenerator(tr.Schema(), Options{})
	psReuse, err := gReuse.Sequence(tr)
	if err != nil {
		t.Fatal(err)
	}
	gNo, _ := NewGenerator(tr.Schema(), Options{NoReuse: true})
	psNo, err := gNo.Sequence(tr)
	if err != nil {
		t.Fatal(err)
	}
	count := func(ps []*Predicate) int {
		m := map[string]bool{}
		for _, p := range ps {
			m[p.Key] = true
		}
		return len(m)
	}
	if count(psReuse) > count(psNo) {
		t.Errorf("reuse enlarged alphabet: %d vs %d", count(psReuse), count(psNo))
	}
	if gReuse.Stats().SeedHits == 0 {
		t.Error("no seed hits with reuse enabled")
	}
}

func TestInconsistentWindowFallsBack(t *testing.T) {
	// Window [0,1,0,2] with w=4: steps 0→1, 1→0, 0→2. f(0) must be
	// both 1 and 2 — inconsistent, so the explicit relation is used.
	tr := intTrace(t, 0, 1, 0, 2)
	g, err := NewGenerator(tr.Schema(), Options{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := g.Sequence(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 {
		t.Fatalf("got %d predicates", len(ps))
	}
	if err := Verify(ps[0], tr); err != nil {
		t.Errorf("fallback predicate unsound: %v", err)
	}
}

func TestWindowValidation(t *testing.T) {
	schema := trace.MustSchema(trace.VarDef{Name: "x", Type: expr.Int})
	if _, err := NewGenerator(schema, Options{Window: 1}); err == nil {
		t.Error("window 1 accepted")
	}
	g, _ := NewGenerator(schema, Options{})
	if _, err := g.Sequence(intTrace(t, 1, 2)); err == nil {
		t.Error("trace shorter than window accepted")
	}
	if _, err := g.FromWindow(intTrace(t, 1, 2)); err == nil {
		t.Error("short window accepted")
	}
}

func TestEventTraceWiderWindow(t *testing.T) {
	// Event trace with w=3: the changing event has no uniform guard,
	// so the generator synthesises a next-event function instead of
	// returning an empty predicate.
	tr := trace.FromEvents([]string{"a", "b", "a", "b", "a"})
	g, err := NewGenerator(tr.Schema(), Options{Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := g.Sequence(tr)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		if err := Verify(p, tr.Slice(i, i+3)); err != nil {
			t.Errorf("window %d: %v", i, err)
		}
	}
}

// TestGeneratorConcurrentUse hammers one Generator from many
// goroutines (run under -race in CI). Interleaved calls may observe
// different seed orders, so the test checks safety and soundness, not
// cross-call determinism: no data race, every sequence sound, and
// interning consistent within each result.
func TestGeneratorConcurrentUse(t *testing.T) {
	vals := []int64{1, 2, 3, 4, 5, 4, 3, 2, 1, 2, 3, 4, 5, 4, 3, 2, 1}
	tr := intTrace(t, vals...)
	g, err := NewGenerator(tr.Schema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				ps, err := g.Sequence(tr)
				if err != nil {
					t.Errorf("Sequence: %v", err)
					return
				}
				for j, p := range ps {
					if err := Verify(p, tr.Slice(j, j+g.Window())); err != nil {
						t.Errorf("window %d: %v", j, err)
					}
				}
			} else {
				for j := 0; j+g.Window() <= tr.Len(); j++ {
					if _, err := g.FromWindow(tr.Slice(j, j+g.Window())); err != nil {
						t.Errorf("FromWindow %d: %v", j, err)
					}
				}
			}
			_ = g.Stats()
			_ = g.Alphabet()
			_ = g.Seeds()
		}(i)
	}
	wg.Wait()
	want := tr.Len() + 1 - g.Window()
	if got := g.Stats().Windows; got != 8*want {
		t.Errorf("windows = %d, want %d", got, 8*want)
	}
}

// TestMemoHitNoAllocs pins the hot path: answering a repeated window
// from the memo must not allocate at all.
func TestMemoHitNoAllocs(t *testing.T) {
	tr := intTrace(t, 1, 2, 3)
	g, err := NewGenerator(tr.Schema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]trace.ObsID, g.Window())
	for i := range ids {
		ids[i] = g.obsIntern.Intern(tr.At(i))
	}
	if _, err := g.streamWindow(ids); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		p, err := g.streamWindow(ids)
		if err != nil || p == nil {
			t.Fatal("memo hit failed")
		}
	})
	if allocs != 0 {
		t.Errorf("memo hit allocates %.1f objects per call, want 0", allocs)
	}
}
