// Checkpointed streaming ingestion: this file drives LearnSource when
// core.Options.Checkpoint is enabled. The source is consumed in
// bounded epochs (Config.Every observations per SequenceSource call);
// each epoch boundary is a quiescent point — the windower has
// returned, so the generator, the RLE run log and the consumed-
// observation count are mutually consistent — and that is where
// ingest-phase checkpoints are written. Epochs change nothing
// observable: the next epoch's source first replays the last w−1
// observations (no hashing, no counting) so the first new observation
// completes exactly the next unprocessed window, and learn.Seq.Append
// merges runs split at the boundary, so the final model is
// byte-identical to a single-pass run.
//
// Resume fast-forwards the source past the checkpointed offset,
// re-hashing the skipped prefix and refusing to continue unless it
// matches the checkpoint's running input digest; the generator,
// run log and (in the model phase) the refinement state are restored
// from the snapshot and the run continues as if never interrupted.
package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"maps"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/expr"
	"repro/internal/learn"
	"repro/internal/pipeline"
	"repro/internal/predicate"
	"repro/internal/trace"
)

// defaultEpoch is the ingest checkpoint interval in observations when
// Config.Every is zero.
const defaultEpoch = 100000

// renderSchema renders a schema the way model files do
// ("name:type[:input]" fields, comma-joined); checkpoints store it so
// resume can refuse a schema mismatch without parsing anything.
func renderSchema(schema *trace.Schema) string {
	fields := make([]string, schema.Len())
	for i := 0; i < schema.Len(); i++ {
		v := schema.Var(i)
		f := v.Name + ":" + v.Type.String()
		if v.Role == trace.Input {
			f += ":input"
		}
		fields[i] = f
	}
	return strings.Join(fields, ",")
}

// ckptDriver owns everything checkpoint-specific about one LearnSource
// run: the running input digest, the priming ring, the epoch loop, the
// checkpoint manager and the learn-stage write hook.
type ckptDriver struct {
	p      *Pipeline
	cfg    checkpoint.Config
	man    *checkpoint.Manager
	from   *checkpoint.LoadResult // nil on a fresh run
	every  int
	schema string

	h      hash.Hash // running SHA-256 over consumed observations
	encBuf []byte
	offset int64

	// ring holds owned copies of the last w−1 consumed observations,
	// oldest evicted first: the priming prefix for the next epoch.
	ring    []trace.Observation
	ringN   int
	ringPos int

	pending trace.Observation // owned, prefetched across an epoch boundary

	seq *learn.Seq // the run log LearnSource is building (shared)

	// Ingestion state frozen at the ingest→model transition, reused by
	// every model-phase write.
	frozenPred *predicate.SnapshotState
	frozenSeq  *learn.SeqState

	// Learn-hook write dedup: skip writes whose refinement state is
	// unchanged (stats-only rounds), unless enough time has passed.
	wroteLearn     bool
	lastN          int
	lastBlocked    int
	lastSegments   int
	lastAnchors    int
	lastLearnWrite time.Time

	tr         *pipeline.Tracer
	runSpan    pipeline.SpanID
	cWrites    *pipeline.Counter64
	cBytes     *pipeline.Counter64
	hWriteNS   *pipeline.Histogram
	lastSeq    atomic.Int64
	lastOffset atomic.Int64
}

// newCkptDriver validates the configuration (and, when resuming, the
// checkpoint's compatibility with this run) and opens the checkpoint
// manager — a fresh chain, or a continuation of the loaded one.
func newCkptDriver(p *Pipeline, cfg checkpoint.Config) (*ckptDriver, error) {
	w := p.gen.Window()
	every := cfg.Every
	if every == 0 {
		every = defaultEpoch
	}
	if every < w {
		every = w
	}
	d := &ckptDriver{
		p:      p,
		cfg:    cfg,
		every:  every,
		schema: renderSchema(p.schema),
		h:      sha256.New(),
		ring:   make([]trace.Observation, w-1),
	}
	if cfg.From != nil {
		st := cfg.From.State
		if st.Schema != "" && st.Schema != d.schema {
			return nil, fmt.Errorf("core: resume: checkpoint schema %q does not match run schema %q", st.Schema, d.schema)
		}
		if len(st.Config) > 0 && len(cfg.Params) > 0 && !maps.Equal(st.Config, cfg.Params) {
			return nil, fmt.Errorf("core: resume: checkpoint was taken with different parameters (checkpoint %v, run %v)", st.Config, cfg.Params)
		}
		if st.Predicate == nil || st.SeqRLE == nil {
			return nil, errors.New("core: resume: checkpoint is missing pipeline state")
		}
		d.from = cfg.From
		d.man = checkpoint.ResumeManager(cfg.Dir, cfg.From)
	} else {
		man, err := checkpoint.NewManager(cfg.Dir)
		if err != nil {
			return nil, err
		}
		d.man = man
	}
	tel := p.opts.Telemetry
	d.tr = tel.Trace()
	d.cWrites = tel.Count("checkpoint_writes_total")
	d.cBytes = tel.Count("checkpoint_bytes_total")
	d.hWriteNS = tel.Hist("checkpoint_write_ns", "ns")
	d.lastSeq.Store(-1)
	tel.Gauge("checkpoint_last_seq", func() float64 { return float64(d.lastSeq.Load()) })
	tel.Gauge("checkpoint_last_offset", func() float64 { return float64(d.lastOffset.Load()) })
	return d, nil
}

// restore rebuilds the pipeline state a resumed run continues from:
// the predicate generator (interner, memo, alphabet, seeds, counters),
// the RLE run log, and the learn-stage refinement state if the
// checkpoint reached the model phase.
func (d *ckptDriver) restore() (*learn.Seq, map[string]*predicate.Predicate, *learn.CheckpointState, error) {
	st := d.from.State
	alphabet, err := d.p.gen.Restore(st.Predicate)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: resume: %w", err)
	}
	seq, err := learn.NewSeqFromState(st.SeqRLE)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: resume: %w", err)
	}
	// Every consumed observation but the first w−1 completed one
	// window, so a run log of any other length is not this run's.
	if want := max(st.Offset+1-int64(d.p.gen.Window()), 0); int64(seq.Len()) != want {
		return nil, nil, nil, fmt.Errorf("core: resume: run log holds %d windows, but offset %d implies %d", seq.Len(), st.Offset, want)
	}
	return seq, alphabet, st.Learn, nil
}

// note accounts one newly consumed observation: running digest, ring,
// offset. Primed (replayed) observations never pass through here.
func (d *ckptDriver) note(obs trace.Observation) {
	b := d.encBuf[:0]
	b = binary.AppendUvarint(b, uint64(len(obs)))
	for _, v := range obs {
		b = append(b, byte(v.T))
		switch v.T {
		case expr.Int:
			b = binary.LittleEndian.AppendUint64(b, uint64(v.I))
		case expr.Bool:
			if v.B {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		default:
			b = binary.AppendUvarint(b, uint64(len(v.S)))
			b = append(b, v.S...)
		}
	}
	d.encBuf = b
	d.h.Write(b)
	if len(d.ring) > 0 {
		slot := d.ring[d.ringPos]
		d.ring[d.ringPos] = append(slot[:0], obs...)
		d.ringPos = (d.ringPos + 1) % len(d.ring)
		if d.ringN < len(d.ring) {
			d.ringN++
		}
	}
	d.offset++
}

// prime returns the last min(w−1, consumed) observations, oldest
// first — the replay prefix for the next epoch. The slices are the
// live ring slots; they are only overwritten by note, which the epoch
// source never calls before the whole prefix has been replayed.
func (d *ckptDriver) prime() []trace.Observation {
	out := make([]trace.Observation, 0, d.ringN)
	for i := 0; i < d.ringN; i++ {
		out = append(out, d.ring[(d.ringPos-d.ringN+i+2*len(d.ring))%len(d.ring)])
	}
	return out
}

// fastForward consumes the checkpointed prefix from the source,
// re-hashing it, and refuses to resume unless the hash matches the
// checkpoint's — the guarantee that a resumed run is continuing over
// the same input it started on.
func (d *ckptDriver) fastForward(src trace.Source) error {
	st := d.from.State
	ctx := d.p.opts.Context
	for i := int64(0); i < st.Offset; i++ {
		if ctx != nil && i&8191 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		obs, err := src.Next()
		if err == io.EOF {
			return fmt.Errorf("core: resume: input ends after %d observations but checkpoint offset is %d — input changed since the checkpoint", i, st.Offset)
		}
		if err != nil {
			return err
		}
		d.note(obs)
	}
	if got := hex.EncodeToString(d.h.Sum(nil)); got != st.ObsSHA256 {
		return fmt.Errorf("core: resume: input prefix digest %s does not match checkpoint digest %s — refusing to resume over a different input", got, st.ObsSHA256)
	}
	return nil
}

// prefetch pulls one observation ahead of the next epoch, so an
// end-of-input lands the run in the model phase instead of starting an
// epoch that cannot contain a single new observation. Returns true at
// end of input.
func (d *ckptDriver) prefetch(src trace.Source) (bool, error) {
	obs, err := src.Next()
	if err == io.EOF {
		return true, nil
	}
	if err != nil {
		return false, err
	}
	d.pending = append(trace.Observation(nil), obs...)
	return false, nil
}

// ingest streams the whole source through the generator in epochs,
// checkpointing at each boundary. On return the generator and d.seq
// hold the complete ingestion state (or an error is pending and no
// checkpoint was written for the incomplete epoch).
func (d *ckptDriver) ingest(src trace.Source, emit func(predicate.Run) error) error {
	if d.from != nil {
		if err := d.fastForward(src); err != nil {
			return err
		}
	}
	eof, err := d.prefetch(src)
	if err != nil {
		return err
	}
	if eof {
		if d.from != nil {
			if d.from.State.Phase == checkpoint.PhaseIngest {
				return fmt.Errorf("core: resume: input ends at checkpoint offset %d mid-ingestion — input changed since the checkpoint", d.offset)
			}
			return nil // model-phase checkpoint: ingestion already complete
		}
		// Empty input on a fresh run: run one empty epoch so the
		// canonical shorter-than-window error surfaces.
	}
	for {
		es := &epochSource{
			drv:    d,
			src:    src,
			prime:  d.prime(),
			budget: d.every,
			eof:    eof,
		}
		es.pending, d.pending = d.pending, nil
		if err := d.p.gen.SequenceSource(es, emit); err != nil {
			return err
		}
		if es.eof {
			return nil
		}
		eof, err = d.prefetch(src)
		if err != nil {
			return err
		}
		if eof {
			// The run log is complete; the model-phase checkpoint the
			// learn hook writes supersedes an ingest one here.
			return nil
		}
		if err := d.write(checkpoint.PhaseIngest, nil); err != nil {
			return err
		}
	}
}

// freezeIngest caches the completed ingestion state for reuse by every
// model-phase checkpoint (it no longer changes once the source is
// drained).
func (d *ckptDriver) freezeIngest() {
	d.frozenPred = d.p.gen.Snapshot()
	d.frozenSeq = d.seq.State()
}

// learnHook is installed as learn.Options.Checkpoint: it persists the
// refinement state at solver-round boundaries, skipping rounds whose
// refinement state is unchanged (unless 5s have passed, to keep the
// chain's timestamps fresh on long solves).
func (d *ckptDriver) learnHook(ls *learn.CheckpointState) error {
	anchors := 0
	for _, a := range ls.Anchored {
		if a {
			anchors++
		}
	}
	changed := !d.wroteLearn ||
		ls.N != d.lastN ||
		len(ls.Blocked) != d.lastBlocked ||
		len(ls.Segments) != d.lastSegments ||
		anchors != d.lastAnchors
	if !changed && time.Since(d.lastLearnWrite) < 5*time.Second {
		return nil
	}
	if err := d.write(checkpoint.PhaseModel, ls); err != nil {
		return err
	}
	d.wroteLearn = true
	d.lastN = ls.N
	d.lastBlocked = len(ls.Blocked)
	d.lastSegments = len(ls.Segments)
	d.lastAnchors = anchors
	d.lastLearnWrite = time.Now()
	return nil
}

// write assembles and atomically persists one checkpoint.
func (d *ckptDriver) write(phase string, ls *learn.CheckpointState) error {
	st := &checkpoint.State{
		Tool:      d.cfg.Tool,
		Phase:     phase,
		Config:    d.cfg.Params,
		Schema:    d.schema,
		Input:     d.cfg.Input,
		Offset:    d.offset,
		ObsSHA256: hex.EncodeToString(d.h.Sum(nil)),
	}
	if phase == checkpoint.PhaseModel {
		st.Predicate = d.frozenPred
		st.SeqRLE = d.frozenSeq
		st.Learn = ls
	} else {
		st.Predicate = d.p.gen.Snapshot()
		st.SeqRLE = d.seq.State()
	}
	var span pipeline.SpanID
	if d.tr.Enabled() {
		span = d.tr.Start(d.runSpan, "checkpoint",
			pipeline.Str("phase", phase),
			pipeline.Int("offset", d.offset))
	}
	t0 := time.Now()
	n, err := d.man.Write(st)
	d.hWriteNS.Since(t0)
	if d.tr.Enabled() {
		d.tr.End(span,
			pipeline.Int("seq", int64(st.Seq)),
			pipeline.Int("bytes", n))
	}
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	d.cWrites.Add(1)
	d.cBytes.Add(n)
	d.lastSeq.Store(int64(st.Seq))
	d.lastOffset.Store(d.offset)
	return nil
}

// epochSource feeds the windower one bounded epoch: first the replay
// prefix (the previous epoch's last w−1 observations, not re-counted),
// then up to budget new observations from the underlying source, then
// EOF. All driver accounting (hash, ring, offset) happens here, on the
// windower's goroutine; the windower itself checks the run context.
type epochSource struct {
	drv     *ckptDriver
	src     trace.Source
	prime   []trace.Observation
	pi      int
	pending trace.Observation // first new observation, prefetched
	budget  int
	eof     bool
}

func (es *epochSource) Schema() *trace.Schema { return es.src.Schema() }

func (es *epochSource) Next() (trace.Observation, error) {
	if es.pi < len(es.prime) {
		obs := es.prime[es.pi]
		es.pi++
		return obs, nil
	}
	if es.budget <= 0 || es.eof {
		return nil, io.EOF
	}
	var obs trace.Observation
	if es.pending != nil {
		obs, es.pending = es.pending, nil
	} else {
		o, err := es.src.Next()
		if err == io.EOF {
			es.eof = true
			return nil, io.EOF
		}
		if err != nil {
			return nil, err
		}
		obs = o
	}
	es.drv.note(obs)
	es.budget--
	return obs, nil
}

// interrupted wraps err with the stage the run was cancelled in when
// the run context is done; otherwise it returns err unchanged.
func (p *Pipeline) interrupted(stage string, err error) error {
	if ctx := p.opts.Context; ctx != nil && ctx.Err() != nil {
		return fmt.Errorf("core: interrupted at stage %s: %w", stage, err)
	}
	return err
}
