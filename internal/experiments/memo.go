// Cross-run synthesis-cache evaluation: learn each quick benchmark
// with the predicate cache disabled, cold, warm, shared between
// concurrent runs and deliberately corrupted, and check that every
// mode yields a byte-identical persisted model while the warm runs
// skip the enumerative synthesis work. RunMemo backs `repro -exp
// memo` and the committed BENCH_memo.json, and is the executable form
// of internal/synthcache's contract: the cache changes how fast a
// window predicate is found, never which predicate is found.
package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro"
)

// MemoRow is one benchmark × worker-count measurement of the cache.
type MemoRow struct {
	// Name is the benchmark's table name; TraceLen its trace length;
	// Workers the -j setting of every leg (solver-portfolio
	// concurrency, so it changes nothing unless Portfolio > 1).
	Name     string `json:"name"`
	TraceLen int    `json:"trace_len"`
	Workers  int    `json:"workers"`
	// States is the learned state count (identical in every leg).
	States int `json:"states"`
	// DisabledMS is the uncached baseline; ColdMS a first run filling
	// an empty cache directory (synthesis plus store overhead); WarmMS
	// a second run served entirely from it.
	DisabledMS float64 `json:"disabled_ms"`
	ColdMS     float64 `json:"cold_ms"`
	WarmMS     float64 `json:"warm_ms"`
	// ColdStores counts entries the cold run published; WarmHits and
	// WarmMisses the warm run's lookups (misses should be 0);
	// CorruptDetected the entries the corrupted-directory leg rejected
	// by checksum before falling back to fresh synthesis.
	ColdStores      int64 `json:"cold_stores"`
	WarmHits        int64 `json:"warm_hits"`
	WarmMisses      int64 `json:"warm_misses"`
	CorruptDetected int64 `json:"corrupt_detected"`
	// The identity flags compare each leg's persisted model bytes
	// against the cache-disabled baseline — the load-bearing claim.
	ColdIdentical    bool `json:"cold_identical"`
	WarmIdentical    bool `json:"warm_identical"`
	SharedIdentical  bool `json:"shared_identical"`
	CorruptIdentical bool `json:"corrupt_identical"`
}

// memoWorkerCounts: the -j settings each cache leg runs at; they vary
// only the solver portfolio's concurrency.
var memoWorkerCounts = []int{1, 4}

// memoSharedRuns is how many concurrent learners race one cache
// directory in the shared leg.
const memoSharedRuns = 3

// RunMemo measures every cache mode on the four quick benchmarks
// (rtlinux/integrator dominate on trace generation, not synthesis,
// and add little signal here).
func RunMemo() ([]MemoRow, error) {
	var rows []MemoRow
	for _, c := range Cases()[:4] {
		tr, err := c.Generate()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
		for _, workers := range memoWorkerCounts {
			row, err := memoCase(c, tr, workers)
			if err != nil {
				return nil, fmt.Errorf("%s (j=%d): %w", c.Name, workers, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// memoCase runs all five legs of one benchmark at one worker count.
func memoCase(c Case, tr *repro.Trace, workers int) (MemoRow, error) {
	row := MemoRow{Name: c.Name, TraceLen: tr.Len(), Workers: workers}

	// Baseline: cache disabled. Every other leg must reproduce these
	// exact model bytes.
	base, states, baseMS, err := memoLearn(c, tr, workers, nil)
	if err != nil {
		return row, err
	}
	row.States, row.DisabledMS = states, baseMS

	dir, err := os.MkdirTemp("", "t2m-memo-*")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(dir)

	// Cold: first run against an empty directory fills it.
	cold, err := repro.OpenSynthCache(dir)
	if err != nil {
		return row, err
	}
	coldBytes, _, coldMS, err := memoLearn(c, tr, workers, cold)
	if err != nil {
		return row, err
	}
	row.ColdMS = coldMS
	row.ColdStores = cold.Stats().Stores
	row.ColdIdentical = bytes.Equal(coldBytes, base)

	// Warm: a fresh handle on the filled directory, so the counters
	// cover this leg alone.
	warm, err := repro.OpenSynthCache(dir)
	if err != nil {
		return row, err
	}
	warmBytes, _, warmMS, err := memoLearn(c, tr, workers, warm)
	if err != nil {
		return row, err
	}
	st := warm.Stats()
	row.WarmMS = warmMS
	row.WarmHits, row.WarmMisses = st.Hits, st.Misses
	row.WarmIdentical = bytes.Equal(warmBytes, base)

	// Shared: concurrent learners racing one directory, each with its
	// own handle, the way independent processes share it. Each
	// regenerates its own trace so nothing is shared but the files.
	shared, err := memoShared(c, workers, base)
	if err != nil {
		return row, err
	}
	row.SharedIdentical = shared

	// Corrupt: damage every stored entry, then relearn. The checksums
	// must reject them all and the run must fall back to synthesis.
	if _, err := corruptCacheDir(dir); err != nil {
		return row, err
	}
	hurt, err := repro.OpenSynthCache(dir)
	if err != nil {
		return row, err
	}
	hurtBytes, _, _, err := memoLearn(c, tr, workers, hurt)
	if err != nil {
		return row, err
	}
	row.CorruptDetected = hurt.Stats().Corrupt
	row.CorruptIdentical = bytes.Equal(hurtBytes, base)
	return row, nil
}

// memoLearn runs one learning leg and returns the persisted model
// bytes, the state count and the wall-clock milliseconds.
func memoLearn(c Case, tr *repro.Trace, workers int, cache *repro.SynthCache) ([]byte, int, float64, error) {
	opts := c.Options
	opts.Workers = workers
	opts.Portfolio = Portfolio
	opts.Context = Context
	opts.SynthCache = cache
	t0 := time.Now()
	m, err := repro.Learn(tr, opts)
	if err != nil {
		return nil, 0, 0, err
	}
	ms := float64(time.Since(t0).Microseconds()) / 1e3
	var buf bytes.Buffer
	if err := repro.SaveModel(&buf, m); err != nil {
		return nil, 0, 0, err
	}
	return buf.Bytes(), m.States, ms, nil
}

// memoShared races memoSharedRuns learners on one fresh cache
// directory and reports whether every one reproduced the baseline
// bytes.
func memoShared(c Case, workers int, base []byte) (bool, error) {
	dir, err := os.MkdirTemp("", "t2m-memo-shared-*")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)
	outs := make([][]byte, memoSharedRuns)
	errs := make([]error, memoSharedRuns)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := c.Generate()
			if err != nil {
				errs[i] = err
				return
			}
			sc, err := repro.OpenSynthCache(dir)
			if err != nil {
				errs[i] = err
				return
			}
			outs[i], _, _, errs[i] = memoLearn(c, tr, workers, sc)
		}(i)
	}
	wg.Wait()
	identical := true
	for i := range outs {
		if errs[i] != nil {
			return false, errs[i]
		}
		if !bytes.Equal(outs[i], base) {
			identical = false
		}
	}
	return identical, nil
}

// corruptCacheDir flips one byte in the middle of every cache entry
// under dir — the on-disk damage (torn write, disk rot) the entry
// checksums exist to catch — and returns how many files it damaged.
func corruptCacheDir(dir string) (int, error) {
	n := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".sce" {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if len(raw) == 0 {
			return nil
		}
		raw[len(raw)/2] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			return err
		}
		n++
		return nil
	})
	return n, err
}

// WriteMemoBench writes the rows as the BENCH_memo.json document.
func WriteMemoBench(w io.Writer, rows []MemoRow) error {
	doc := struct {
		Benchmark   string    `json:"benchmark"`
		Description string    `json:"description"`
		GOOS        string    `json:"goos"`
		GOARCH      string    `json:"goarch"`
		Results     []MemoRow `json:"results"`
	}{
		Benchmark:   "memo",
		Description: "Cross-run synthesis cache: wall-clock and hit/store/corrupt counts for cache-disabled, cold, warm, shared-concurrent and corrupted-directory runs, with byte-identity of every persisted model against the uncached baseline (repro -exp memo -memo-out BENCH_memo.json)",
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Results:     rows,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
