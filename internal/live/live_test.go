package live

import (
	"strings"
	"testing"

	"repro/internal/learn"
	"repro/internal/pipeline"
	"repro/internal/predicate"
)

// feeder interns predicates by key so repeated symbols hit the
// pointer-identity fast path, exactly like the generator's stream.
type feeder struct {
	t     *testing.T
	m     *Maintainer
	preds map[string]*predicate.Predicate
}

func newFeeder(t *testing.T, m *Maintainer) *feeder {
	return &feeder{t: t, m: m, preds: map[string]*predicate.Predicate{}}
}

func (f *feeder) feed(key string, count int) {
	f.t.Helper()
	p, ok := f.preds[key]
	if !ok {
		p = &predicate.Predicate{Key: key}
		f.preds[key] = p
	}
	if err := f.m.Feed(predicate.Run{Pred: p, Count: count}); err != nil {
		f.t.Fatalf("Feed(%s×%d): %v", key, count, err)
	}
}

// TestMaintainerMatchesBatchAtEveryVersion: at every version boundary,
// a fresh batch GenerateModelSeqs over the watermarked prefix must
// produce the byte-identical automaton.
func TestMaintainerMatchesBatchAtEveryVersion(t *testing.T) {
	m, err := NewMaintainer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := newFeeder(t, m)
	var word []string
	emitted := 0
	m.opts.OnVersion = func(v Version) {
		emitted++
		prefix := word[:v.Steps]
		seq := learn.NewSeq()
		for _, s := range prefix {
			seq.Append(s, 1)
		}
		res, err := learn.GenerateModelSeqs([]*learn.Seq{seq}, learn.Options{Segmented: true})
		if err != nil {
			t.Fatalf("v%d: batch over %d steps: %v", v.Version, v.Steps, err)
		}
		if lm, bm := m.Model().String(), res.Automaton.String(); lm != bm {
			t.Fatalf("v%d (steps %d): live vs batch:\n%s\nvs\n%s",
				v.Version, v.Steps, lm, bm)
		}
	}
	// A protocol-ish stream whose behaviour widens over time.
	script := []struct {
		key   string
		count int
	}{
		{"send", 1}, {"ack", 1}, {"send", 1}, {"ack", 1},
		{"send", 1}, {"ack", 1}, {"timeout", 1},
		{"send", 1}, {"ack", 1}, {"send", 1}, {"ack", 1}, {"timeout", 1},
		{"send", 1}, {"send", 1}, {"ack", 1}, // retry: new behaviour
		{"send", 1}, {"ack", 1}, {"timeout", 1},
	}
	for _, s := range script {
		for i := 0; i < s.count; i++ {
			word = append(word, s.key)
		}
		f.feed(s.key, s.count)
	}
	if err := m.Finish(); err != nil {
		t.Fatal(err)
	}
	if emitted == 0 || m.Version() == 0 {
		t.Fatal("no versions emitted")
	}
}

// TestMaintainerFastPathZeroSolverCalls pins the acceptance criterion:
// once the stream settles into behaviour the model already explains,
// further runs cost zero solver calls and create no versions.
func TestMaintainerFastPathZeroSolverCalls(t *testing.T) {
	tel := &pipeline.Telemetry{Registry: pipeline.NewRegistry()}
	m, err := NewMaintainer(Options{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	f := newFeeder(t, m)
	for i := 0; i < 10; i++ {
		f.feed("z", 1)
		f.feed("p", 2)
	}
	calls := m.Stats().SolverCalls
	if calls == 0 {
		t.Fatal("warmup made no solver calls")
	}
	version := m.Version()
	if version == 0 {
		t.Fatal("warmup produced no version")
	}
	diverges := tel.Count("live_divergence_total").Value()
	for i := 0; i < 100; i++ {
		f.feed("z", 1)
		f.feed("p", 2)
	}
	if got := m.Stats().SolverCalls; got != calls {
		t.Fatalf("already-accepted runs made %d solver calls", got-calls)
	}
	if m.Version() != version {
		t.Fatalf("already-accepted runs bumped version %d → %d", version, m.Version())
	}
	if got := tel.Count("live_version_total").Value(); got != int64(version) {
		t.Fatalf("live_version_total = %d, want %d", got, version)
	}
	if got := tel.Count("live_divergence_total").Value(); got != diverges {
		t.Fatalf("already-accepted runs raised %d divergences", got-diverges)
	}
}

// TestMaintainerDivergenceEvent: a step the current model cannot
// explain raises a structured event against the version that was live,
// then the revision absorbs the new behaviour (version bump, and the
// same behaviour no longer diverges).
func TestMaintainerDivergenceEvent(t *testing.T) {
	tel := &pipeline.Telemetry{Registry: pipeline.NewRegistry()}
	var events []Divergence
	m, err := NewMaintainer(Options{
		Telemetry:    tel,
		OnDivergence: func(d Divergence) { events = append(events, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	f := newFeeder(t, m)
	for i := 0; i < 10; i++ {
		f.feed("z", 1)
		f.feed("p", 2)
	}
	vBefore := m.Version()
	stepsBefore := m.Steps()
	warmupEvents := len(events) // the first cycle wrap is itself novel
	f.feed("crash", 1)          // entirely novel behaviour
	if len(events) != warmupEvents+1 {
		t.Fatalf("got %d new divergence events, want 1", len(events)-warmupEvents)
	}
	d := events[len(events)-1]
	if d.Step != stepsBefore {
		t.Fatalf("divergence step = %d, want %d", d.Step, stepsBefore)
	}
	if d.Symbol != "crash" || d.KnownSymbol {
		t.Fatalf("divergence = %+v, want novel symbol crash", d)
	}
	if d.ModelVersion != vBefore {
		t.Fatalf("divergence against version %d, want %d", d.ModelVersion, vBefore)
	}
	if m.Version() <= vBefore {
		t.Fatal("divergent behaviour did not produce a new version")
	}
	if got := tel.Count("live_divergence_total").Value(); got != int64(len(events)) {
		t.Fatalf("live_divergence_total = %d, want %d", got, len(events))
	}
	if !strings.Contains(d.String(), "novel behaviour") {
		t.Fatalf("event rendering %q", d.String())
	}
	// The revised model absorbs the new behaviour: after a couple of
	// settle cycles (a recurrence in a new context may diverge once
	// more), repeating the same pattern diverges no further.
	for i := 0; i < 3; i++ {
		f.feed("z", 1)
		f.feed("p", 2)
		f.feed("crash", 1)
	}
	total, _ := m.Divergences()
	for i := 0; i < 5; i++ {
		f.feed("z", 1)
		f.feed("p", 2)
		f.feed("crash", 1)
	}
	finalTotal, _ := m.Divergences()
	if finalTotal != total {
		t.Fatalf("settled behaviour still diverging: %d → %d", total, finalTotal)
	}
}

// TestMaintainerHistoryBounded: the version ring and divergence tail
// stay within MaxVersions while the counters stay exact.
func TestMaintainerHistoryBounded(t *testing.T) {
	m, err := NewMaintainer(Options{MaxVersions: 2})
	if err != nil {
		t.Fatal(err)
	}
	f := newFeeder(t, m)
	// Keep introducing fresh symbols: every one forces a revision (and
	// a new version) plus one divergence once a model exists.
	syms := []string{"a", "b", "c", "d", "e"}
	for _, s := range syms {
		f.feed(s, 3)
	}
	if m.Version() <= 2 {
		t.Fatalf("only %d versions; workload too tame for the bound", m.Version())
	}
	vs := m.Versions()
	if len(vs) != 2 {
		t.Fatalf("retained %d versions, want 2", len(vs))
	}
	if vs[len(vs)-1].Version != m.Version() {
		t.Fatalf("newest retained version %d, counter %d", vs[len(vs)-1].Version, m.Version())
	}
	total, tail := m.Divergences()
	if int64(len(tail)) > 2 {
		t.Fatalf("retained %d divergence events, want ≤ 2", len(tail))
	}
	if total < int64(len(tail)) {
		t.Fatalf("total %d < retained %d", total, len(tail))
	}
	if m.Finish() != nil {
		t.Fatal("Finish on settled maintainer failed")
	}
}

// TestMaintainerTooShort: a stream shorter than the segmentation
// window cannot be learned from and Finish says so.
func TestMaintainerTooShort(t *testing.T) {
	m, err := NewMaintainer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := newFeeder(t, m)
	f.feed("a", 2)
	if err := m.Finish(); err == nil || !strings.Contains(err.Error(), "too short") {
		t.Fatalf("Finish = %v, want too-short error", err)
	}
}
