package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// layerSet holds one traced iteration's per-layer values by metric name.
type layerSet map[string]float64

// layerMetric declares one per-layer metric; the list is mirrored by
// the per_layer section of BENCHMARK.json.
type layerMetric struct{ name, unit string }

var layerMetrics = []layerMetric{
	{"trace.decode_s", "s"},
	{"trace.obs", "count"},
	{"trace.bytes", "bytes"},
	{"trace.mb_per_s", "MB/s"},
	{"predicate.s", "s"},
	{"predicate.self_s", "s"},
	{"predicate.windows", "count"},
	{"predicate.unique_windows", "count"},
	{"predicate.memo_hit_ratio", "ratio"},
	{"predicate.runs", "count"},
	{"synth.s", "s"},
	{"synth.calls", "count"},
	{"synth.seed_hit_ratio", "ratio"},
	{"synth.candidates", "count"},
	{"learn.s", "s"},
	{"learn.self_s", "s"},
	{"learn.segments", "count"},
	{"learn.solver_calls", "count"},
	{"learn.refinements", "count"},
	{"learn.accept_refinements", "count"},
	{"learn.states", "count"},
	{"sat.solve_s", "s"},
	{"sat.calls", "count"},
	{"sat.conflicts", "count"},
	{"sat.propagations", "count"},
	{"sat.learned", "count"},
	{"sat.conflicts_per_s", "1/s"},
	{"live.s", "s"},
	{"live.self_s", "s"},
	{"live.feeds", "count"},
	{"live.fast_path_ratio", "ratio"},
	{"live.revisions", "count"},
	{"live.reminimizations", "count"},
	{"live.versions", "count"},
	{"live.divergences", "count"},
	{"live.revise_s", "s"},
	{"core.self_s", "s"},
	{"core.check_s", "s"},
	{"layers.self_sum_s", "s"},
	{"layers.untraced_s", "s"},
	{"tracing.overhead_s", "s"},
}

// selfLayers partition one iteration's learn and check wall time: each
// is a layer's duration minus the parts its nested layers cover. Their
// sum is the traced end-to-end time, which the traced run compares
// with the untraced learn_s + check_s. synth.s is not in the partition:
// synthesis runs on worker goroutines that overlap the windower when
// there is more than one worker, so it is busy time, not wall time.
var selfLayers = []string{
	"trace.decode_s", "predicate.self_s", "learn.self_s", "sat.solve_s",
	"live.self_s", "core.self_s", "core.check_s",
}

// layerTolerance bounds how far the self-times may sum from the
// untraced end-to-end time, and how far below zero any one self-time
// may fall, as a share of the untraced end-to-end time. It covers the
// tracing overhead (the registry counts every window, which has cost
// ingest up to 13%) and run-to-run noise.
const layerTolerance = 0.25

// addModel folds one learned model's stage table and stats into l;
// wall is the benchmark's own timing of the call that learned it.
func (l layerSet) addModel(m *core.Model, wall time.Duration) {
	var predS, learnS float64
	for _, st := range m.Stages {
		switch st.Name {
		case "predicate":
			predS += st.Wall.Seconds()
			l["predicate.runs"] += float64(st.Counter("runs"))
		case "model":
			learnS += st.Wall.Seconds()
		}
	}
	l["predicate.s"] += predS
	l["learn.s"] += learnS
	l["core.self_s"] += wall.Seconds() - predS - learnS
	if m.P != nil {
		l["predicate.runs"] += float64(countRuns(m.P))
	}
	l.addPredicateStats(m.PredicateStats.Windows, m.PredicateStats.UniqueWindows,
		m.PredicateStats.MemoHits, m.PredicateStats.SynthCalls, m.PredicateStats.SeedHits)
	ls := m.LearnStats
	l["learn.segments"] += float64(ls.Segments)
	l["learn.solver_calls"] += float64(ls.SolverCalls)
	l["learn.refinements"] += float64(ls.Refinements)
	l["learn.accept_refinements"] += float64(ls.AcceptRefinements)
	l["learn.states"] += float64(ls.FinalStates)
	l["sat.conflicts"] += float64(ls.SATConflicts)
	l["sat.propagations"] += float64(ls.SATPropagations)
	l["sat.learned"] += float64(ls.SATLearned)
}

// addPredicateStats records predicate-generator counters; the ratios
// are derived in finish.
func (l layerSet) addPredicateStats(windows, unique, memoHits, synthCalls, seedHits int) {
	l["predicate.windows"] += float64(windows)
	l["predicate.unique_windows"] += float64(unique)
	l["memo_hits"] += float64(memoHits)
	l["synth.calls"] += float64(synthCalls)
	l["seed_hits"] += float64(seedHits)
}

// addRegistry reads the histograms and counters the program recorded
// into the iteration's telemetry registry.
func (l layerSet) addRegistry(reg *pipeline.Registry) {
	synth := reg.Histogram("predicate_window_synth_ns", "ns").Summary()
	solve := reg.Histogram("solver_call_ns", "ns").Summary()
	l["synth.s"] += float64(synth.Sum) / 1e9
	l["sat.solve_s"] += float64(solve.Sum) / 1e9
	l["sat.calls"] += float64(solve.Count)
	l["synth.candidates"] += float64(reg.Counter("synth_candidates_total").Value())
	l["live.reminimizations"] += float64(reg.Histogram("live_reminimize_ns", "ns").Summary().Count)
}

// finish derives self-times and ratios once every layer is recorded
// and drops the scratch counters. Layers a workload does not run read
// as 0.
func (l layerSet) finish() {
	l["predicate.self_s"] = l["predicate.s"] - l["trace.decode_s"]
	if l["live.feeds"] > 0 {
		l["live.self_s"] = l["live.s"] - l["learn.s"]
		l["live.fast_path_ratio"] = 1 - l["live.revisions"]/l["live.feeds"]
	}
	l["learn.self_s"] = l["learn.s"] - l["sat.solve_s"]
	l["predicate.memo_hit_ratio"] = ratio(l["memo_hits"], l["predicate.windows"])
	l["synth.seed_hit_ratio"] = ratio(l["seed_hits"], l["synth.calls"])
	l["sat.conflicts_per_s"] = ratio(l["sat.conflicts"], l["sat.solve_s"])
	l["trace.mb_per_s"] = ratio(l["trace.bytes"]/1e6, l["trace.decode_s"])
	delete(l, "memo_hits")
	delete(l, "seed_hits")
	sum := 0.0
	for _, name := range selfLayers {
		sum += l[name]
	}
	l["layers.self_sum_s"] = sum
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// countRuns counts the maximal runs of equal symbols in a sequence.
func countRuns(word []string) int {
	n := 0
	for i, s := range word {
		if i == 0 || s != word[i-1] {
			n++
		}
	}
	return n
}

// checkLayers tests the per-layer accounting against the untraced
// end-to-end time: the self-times must sum to it within layerTolerance,
// and no self-time may be more negative than the tolerance allows
// (which would mean a nested layer outlasted its parent).
func checkLayers(l layerSet, untraced float64) error {
	slack := layerTolerance * untraced
	if d := l["layers.self_sum_s"] - untraced; d > slack || d < -slack {
		return fmt.Errorf("layer self-times sum to %.4fs, untraced end-to-end is %.4fs (tolerance %.0f%%)",
			l["layers.self_sum_s"], untraced, 100*layerTolerance)
	}
	for _, name := range selfLayers {
		if l[name] < -slack {
			return fmt.Errorf("layer %s self-time is %.4fs", name, l[name])
		}
	}
	return nil
}

// medianLayers takes each metric's median over the traced iterations.
func medianLayers(sets []layerSet) layerSet {
	out := layerSet{}
	for _, m := range layerMetrics {
		vals := make([]float64, len(sets))
		for i, s := range sets {
			vals[i] = s[m.name]
		}
		out[m.name] = median(vals)
	}
	return out
}

// formatLayers renders the per-layer table.
func formatLayers(l layerSet) string {
	var b strings.Builder
	for _, m := range layerMetrics {
		fmt.Fprintf(&b, "  %-28s %16.6g %s\n", m.name, l[m.name], m.unit)
	}
	return b.String()
}

// decodeStats is the outcome of a decode-only pass.
type decodeStats struct {
	seconds float64
	obs     int64
	bytes   int64
}

func (d *decodeStats) add(o decodeStats) {
	d.seconds += o.seconds
	d.obs += o.obs
	d.bytes += o.bytes
}

func (d decodeStats) record(l layerSet) {
	l["trace.decode_s"] += d.seconds
	l["trace.obs"] += float64(d.obs)
	l["trace.bytes"] += float64(d.bytes)
}

// decodePass decodes and interns every observation of src with the
// ingest strategy the predicate windower picks for it, and nothing
// else: record-aligned blocks decoded on GOMAXPROCS workers with
// private interners when src is a BlockSource and there is more than
// one worker, IDSource.NextID when src interns its own records, and
// Next plus Intern otherwise. It never wraps src, so every fast path
// stays visible.
func decodePass(src trace.Source, size int64) (decodeStats, error) {
	t0 := time.Now()
	n, err := decodeAll(src, runtime.GOMAXPROCS(0))
	return decodeStats{seconds: time.Since(t0).Seconds(), obs: n, bytes: size}, err
}

func decodeAll(src trace.Source, workers int) (int64, error) {
	if bs, ok := src.(trace.BlockSource); ok && workers > 1 {
		if next, ok := bs.Blocks(shardBlockSize); ok {
			return decodeBlocks(bs, next, workers)
		}
	}
	in := trace.NewInterner()
	var n int64
	if is, ok := src.(trace.IDSource); ok {
		for {
			if _, err := is.NextID(in); err == io.EOF {
				return n, nil
			} else if err != nil {
				return n, err
			}
			n++
		}
	}
	for {
		obs, err := src.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		in.Intern(obs)
		n++
	}
}

// shardBlockSize matches the windower's ingest shard size.
const shardBlockSize = 1 << 20

// decodeBlocks hands blocks round-robin to workers that decode them
// into private interners, then merges each block's new canonical
// observations into one global interner, in hand-out order.
func decodeBlocks(bs trace.BlockSource, next func() ([]byte, error), workers int) (int64, error) {
	type shard struct {
		ids []trace.ObsID
		seg []trace.Observation
		err error
	}
	var wg sync.WaitGroup
	ins := make([]chan []byte, workers)
	outs := make([]chan shard, workers)
	for w := 0; w < workers; w++ {
		ins[w] = make(chan []byte, 2)
		outs[w] = make(chan shard, 2)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer close(outs[w])
			dec := bs.NewBlockDecoder()
			local := trace.NewInterner()
			for block := range ins[w] {
				prev := local.Len()
				var ids []trace.ObsID
				err := dec.Decode(block, func(obs trace.Observation) error {
					ids = append(ids, local.Intern(obs))
					return nil
				})
				outs[w] <- shard{ids: ids, seg: local.CanonSince(prev), err: err}
			}
		}(w)
	}
	feedErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			for _, ch := range ins {
				close(ch)
			}
		}()
		for w := 0; ; w = (w + 1) % workers {
			block, err := next()
			if err != nil {
				if err == io.EOF {
					err = nil
				}
				feedErr <- err
				return
			}
			ins[w] <- block
		}
	}()

	global := trace.NewInterner()
	var n int64
	var firstErr error
	for w := 0; ; w = (w + 1) % workers {
		out, ok := <-outs[w]
		if !ok {
			break
		}
		for _, obs := range out.seg {
			global.Intern(obs)
		}
		n += int64(len(out.ids))
		if out.err != nil && firstErr == nil {
			firstErr = out.err
		}
	}
	// Workers drain every block they were handed, so the feeder and all
	// workers finish once the merger stops reading.
	for _, ch := range outs {
		for range ch {
		}
	}
	wg.Wait()
	if err := <-feedErr; err != nil {
		return n, err
	}
	return n, firstErr
}
