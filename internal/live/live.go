// Package live maintains a learned model as a live object over an
// unbounded predicate stream — the paper's monitor finally running
// indefinitely instead of replaying a finished trace. A Maintainer
// consumes the RLE runs predicate.Generator.SequenceSource emits and
// keeps three invariants:
//
//   - fast path: runs the current model already explains are checked
//     by stepping the automaton in O(1) per run (self-loops absorb
//     whole runs) with zero solver work;
//   - extension: genuinely new unique segments extend the retained
//     solver incrementally (learn.Live), and the revised
//     model is byte-identical to a batch relearn over the same prefix;
//   - re-minimization: every ReminimizeEvery new segments — and always
//     when extension would be unsound (new symbol, stale blocked gram)
//     or insufficient (N must grow) — the minimal-N search re-runs
//     from scratch over the whole sequence.
//
// Each revision that changes the model appends an entry to a bounded
// version history (monotone counter, model digest, segment watermark),
// and every step the current model cannot explain raises a structured
// divergence event. Both surface through telemetry counters
// (live_version_total, live_divergence_total) so the health endpoint's
// divergence gauge and the run log see them.
package live

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	"repro/internal/automaton"
	"repro/internal/learn"
	"repro/internal/pipeline"
	"repro/internal/predicate"
)

// Options configures a Maintainer.
type Options struct {
	// Learn configures the underlying searches. Segmented is forced on
	// (live maintenance is defined over the segmented encoding) and
	// Telemetry is inherited from Options.Telemetry.
	Learn learn.Options
	// ReminimizeEvery forces a full re-minimization once this many new
	// unique segments have accumulated since the last one; 0 never
	// forces (re-minimization still happens whenever incremental
	// extension would be unsound or the state count must grow). The
	// learned model is byte-identical at every setting — the policy
	// only trades revision latency against retained-solver drift.
	ReminimizeEvery int
	// MaxVersions bounds the retained version history and divergence
	// event list (the counters keep exact totals). 0 means 64.
	MaxVersions int
	// Telemetry records version/divergence counters and the
	// re-minimization latency histogram. Nil disables recording.
	Telemetry *pipeline.Telemetry
	// OnVersion, when non-nil, observes every accepted version as it
	// is created (the monitor's "live: version ..." lines).
	OnVersion func(Version)
	// OnDivergence, when non-nil, observes every divergence event.
	OnDivergence func(Divergence)
}

// Version is one entry of the model version history: an accepted
// revision that changed the model, with the watermark of evidence it
// covers. Digest is the sha256 of the automaton's canonical text, so
// two versions are byte-identical iff their digests match.
type Version struct {
	Version     int    `json:"version"`
	States      int    `json:"states"`
	Transitions int    `json:"transitions"`
	Digest      string `json:"digest"`
	// Watermark: the revision covers exactly the first Steps expanded
	// observations (Runs RLE runs, Segments unique base segments).
	Steps       int64 `json:"steps"`
	Runs        int   `json:"runs"`
	Segments    int   `json:"segments"`
	Reminimized bool  `json:"reminimized"`
}

// Divergence is a structured non-compliance event: the model version
// current at the time could not explain the symbol at Step.
type Divergence struct {
	// Step is the 0-based expanded position of the unexplained symbol.
	Step int64 `json:"step"`
	// Symbol is the predicate key the model has no transition for.
	Symbol string `json:"symbol"`
	// KnownSymbol reports whether the symbol occurs anywhere in the
	// model (false means entirely novel behaviour).
	KnownSymbol bool `json:"known_symbol"`
	// State is the model state the run was in.
	State automaton.State `json:"state"`
	// ModelVersion is the version that failed to explain the step.
	ModelVersion int `json:"model_version"`
}

func (d Divergence) String() string {
	kind := "novel behaviour"
	if d.KnownSymbol {
		kind = "known behaviour in unexpected context"
	}
	return fmt.Sprintf("%s at step %d: %s (model v%d state q%d)",
		kind, d.Step, d.Symbol, d.ModelVersion, d.State+1)
}

// Maintainer keeps one model current over a predicate stream. Not safe
// for concurrent use; SequenceSource's emit callback is serial.
type Maintainer struct {
	opts Options
	lv   *learn.Live

	alphabet map[string]*predicate.Predicate
	symIDs   map[*predicate.Predicate]int

	cur      automaton.State // fast-path state after the consumed prefix
	known    map[string]bool // symbols occurring anywhere in the model
	steps    int64           // expanded observations consumed
	version  int             // monotone version counter
	lastDig  string
	versions []Version // last MaxVersions entries
	diverges []Divergence
	divTotal int64
	segsNew  int // new segments since the last re-minimization

	cVersions *pipeline.Counter64
	cDiverges *pipeline.Counter64
	hReminNS  *pipeline.Histogram
}

// NewMaintainer returns a Maintainer over an initially empty stream.
func NewMaintainer(opts Options) (*Maintainer, error) {
	if opts.MaxVersions <= 0 {
		opts.MaxVersions = 64
	}
	opts.Learn.Segmented = true
	if opts.Telemetry != nil {
		opts.Learn.Telemetry = opts.Telemetry
	}
	lv, err := learn.NewLive(opts.Learn)
	if err != nil {
		return nil, err
	}
	tel := opts.Telemetry
	return &Maintainer{
		opts:      opts,
		lv:        lv,
		alphabet:  map[string]*predicate.Predicate{},
		symIDs:    map[*predicate.Predicate]int{},
		cVersions: tel.Count("live_version_total"),
		cDiverges: tel.Count("live_divergence_total"),
		hReminNS:  tel.Hist("live_reminimize_ns", "ns"),
	}, nil
}

// Feed consumes one RLE run of the predicate stream — the emit
// callback for predicate.Generator.SequenceSource. The current model
// is stepped over the run first (divergences are raised against the
// version that was live when the step arrived), then the run extends
// the maintained sequence, and a revision runs if and only if the run
// carried new evidence or the model failed to explain it.
func (m *Maintainer) Feed(r predicate.Run) error {
	diverged := m.step(r.Pred.Key, r.Count)
	if id, ok := m.symIDs[r.Pred]; ok {
		m.segsNew += m.lv.AppendID(id, r.Count)
	} else {
		// Predicates are interned, so the pointer is the cheap
		// identity: cache the symbol id to skip hashing the (long)
		// predicate key on every run.
		m.alphabet[r.Pred.Key] = r.Pred
		m.segsNew += m.lv.Append(r.Pred.Key, r.Count)
		m.symIDs[r.Pred] = m.lv.SymbolID(r.Pred.Key)
	}
	m.steps += int64(r.Count)

	if !m.lv.Ready() {
		return nil
	}
	if !diverged && !m.lv.Dirty() {
		return nil // fast path: explained, nothing new
	}
	return m.revise()
}

// step runs the fast path: the current model consumes the run from the
// maintained state, raising a divergence event on the first step it
// cannot explain. Runs absorbed by a self-loop cost O(1).
func (m *Maintainer) step(key string, count int) (diverged bool) {
	model := m.lv.Model()
	if model == nil || count <= 0 {
		return false
	}
	for i := 0; i < count; i++ {
		next, ok := model.Step(m.cur, key)
		if !ok {
			m.divergence(Divergence{
				Step:         m.steps + int64(i),
				Symbol:       key,
				KnownSymbol:  m.known[key],
				State:        m.cur,
				ModelVersion: m.version,
			})
			return true
		}
		if next == m.cur {
			break // self-loop absorbs the rest of the run
		}
		m.cur = next
	}
	return false
}

func (m *Maintainer) divergence(d Divergence) {
	m.divTotal++
	m.cDiverges.Add(1)
	m.diverges = append(m.diverges, d)
	if len(m.diverges) > m.opts.MaxVersions {
		m.diverges = m.diverges[len(m.diverges)-m.opts.MaxVersions:]
	}
	if m.opts.OnDivergence != nil {
		m.opts.OnDivergence(d)
	}
}

// revise brings the model up to date with the maintained sequence and
// resynchronises the fast-path state, recording a new version when the
// model actually changed.
func (m *Maintainer) revise() error {
	force := m.opts.ReminimizeEvery > 0 && m.segsNew >= m.opts.ReminimizeEvery
	t0 := time.Now()
	remin, err := m.lv.Revise(force)
	if err != nil {
		return err
	}
	if remin {
		m.hReminNS.Since(t0)
		m.segsNew = 0
	}
	cur, ok := m.lv.Walk()
	if !ok {
		return errors.New("live: revised model rejects its own prefix")
	}
	m.cur = cur

	model := m.lv.Model()
	sum := sha256.Sum256([]byte(model.String()))
	dig := hex.EncodeToString(sum[:])
	if dig == m.lastDig {
		return nil
	}
	m.lastDig = dig
	m.version++
	m.cVersions.Add(1)
	m.known = map[string]bool{}
	for _, sym := range model.Symbols() {
		m.known[sym] = true
	}
	v := Version{
		Version:     m.version,
		States:      model.NumStates(),
		Transitions: model.NumTransitions(),
		Digest:      dig,
		Steps:       m.steps,
		Runs:        m.lv.Runs(),
		Segments:    m.lv.Segments(),
		Reminimized: remin,
	}
	m.versions = append(m.versions, v)
	if len(m.versions) > m.opts.MaxVersions {
		m.versions = m.versions[len(m.versions)-m.opts.MaxVersions:]
	}
	if m.opts.OnVersion != nil {
		m.opts.OnVersion(v)
	}
	return nil
}

// Finish runs a final revision if any evidence is still pending (Feed
// revises eagerly, so this is normally a no-op) and returns an error
// when the stream was too short to learn from at all.
func (m *Maintainer) Finish() error {
	if !m.lv.Ready() {
		return fmt.Errorf("live: stream too short to learn from (%d observations, need the segmentation window)", m.lv.Len())
	}
	if m.lv.Dirty() {
		return m.revise()
	}
	return nil
}

// Model returns the current automaton (nil before the first version).
func (m *Maintainer) Model() *automaton.NFA { return m.lv.Model() }

// Version returns the current version counter (0 before any model).
func (m *Maintainer) Version() int { return m.version }

// Versions returns the retained version history, oldest first (at most
// MaxVersions entries; the version counter is exact regardless).
func (m *Maintainer) Versions() []Version {
	return append([]Version(nil), m.versions...)
}

// Divergences returns the total divergence count and the retained
// event tail, oldest first.
func (m *Maintainer) Divergences() (int64, []Divergence) {
	return m.divTotal, append([]Divergence(nil), m.diverges...)
}

// Steps returns the number of expanded observations consumed.
func (m *Maintainer) Steps() int64 { return m.steps }

// Alphabet returns the predicates interned from the stream, by key.
func (m *Maintainer) Alphabet() map[string]*predicate.Predicate {
	out := make(map[string]*predicate.Predicate, len(m.alphabet))
	for k, v := range m.alphabet {
		out[k] = v
	}
	return out
}

// Stats returns the cumulative search effort across all revisions.
func (m *Maintainer) Stats() learn.Stats { return m.lv.Stats() }
