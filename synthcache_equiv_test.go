package repro_test

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro"
)

// openCache opens a synthesis cache handle, failing the test on error.
func openCache(t *testing.T, dir string) *repro.SynthCache {
	t.Helper()
	c, err := repro.OpenSynthCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// modelBytes learns and returns the persisted model bytes — the
// currency of every byte-identity assertion below.
func modelBytes(t *testing.T, tr *repro.Trace, opts repro.LearnOptions) []byte {
	t.Helper()
	m, err := repro.Learn(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := repro.SaveModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// cacheFiles snapshots every stored entry under dir: relative path →
// raw bytes.
func cacheFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".sce" {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files[rel] = raw
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// corruptEntries flips a byte in the middle of every stored entry
// under dir and returns how many files it damaged.
func corruptEntries(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	for rel, raw := range cacheFiles(t, dir) {
		raw[len(raw)/2] ^= 0xff
		if err := os.WriteFile(filepath.Join(dir, rel), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n == 0 {
		t.Fatal("no cache entries to corrupt")
	}
	return n
}

// counterInput returns the canonical counter-system workload — the
// single-input fixture for the mode-invariance, concurrency and
// corruption tests (the golden test below covers the whole corpus).
func counterInput(t *testing.T) *repro.Trace {
	t.Helper()
	for _, in := range diffInputs(t) {
		if in.system == "counter" {
			return in.tr
		}
	}
	t.Fatal("counter system missing from diffInputs")
	return nil
}

// TestSynthCacheFileSetModeInvariant: the set of entries a run
// publishes — file names (content digests) and file contents (outcome
// records) — is a function of the input alone, not of the execution
// mode. In-memory and streaming runs, and a crash + checkpoint-resume
// run, must each fill a fresh cache directory with byte-identical
// files, because digests hash window content (not interner ids) and
// records store seed-independent outcomes.
func TestSynthCacheFileSetModeInvariant(t *testing.T) {
	tr := counterInput(t)
	want := modelBytes(t, tr, repro.LearnOptions{})

	refDir := t.TempDir()
	if got := modelBytes(t, tr, repro.LearnOptions{SynthCache: openCache(t, refDir)}); !bytes.Equal(got, want) {
		t.Fatal("in-memory cached model diverged from the uncached model")
	}
	refFiles := cacheFiles(t, refDir)
	if len(refFiles) == 0 {
		t.Fatal("in-memory run stored no cache entries")
	}

	check := func(name, dir string) {
		t.Helper()
		files := cacheFiles(t, dir)
		if len(files) != len(refFiles) {
			t.Errorf("%s stored %d entries, the in-memory run stored %d", name, len(files), len(refFiles))
		}
		for rel, raw := range refFiles {
			got, ok := files[rel]
			if !ok {
				t.Errorf("%s is missing entry %s", name, rel)
				continue
			}
			if !bytes.Equal(got, raw) {
				t.Errorf("%s entry %s differs from the in-memory run's", name, rel)
			}
		}
	}

	dir := t.TempDir()
	m, err := repro.LearnSource(repro.NewTraceSource(tr), repro.LearnOptions{SynthCache: openCache(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := repro.SaveModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Error("stream cached model diverged")
	}
	check("stream", dir)

	// Crash mid-ingestion, resume from the checkpoint: the two partial
	// runs together must fill the directory exactly like one whole run.
	dir = t.TempDir()
	ckpt := t.TempDir()
	opts := repro.LearnOptions{CheckpointDir: ckpt, CheckpointEvery: 4, SynthCache: openCache(t, dir)}
	cut := tr.Len() / 2
	if _, err := repro.LearnSource(&cutSource{src: repro.NewTraceSource(tr), limit: cut}, opts); !errors.Is(err, errKilled) {
		t.Fatalf("cut at %d: err = %v, want the injected crash", cut, err)
	}
	opts.Resume = true
	opts.SynthCache = openCache(t, dir)
	resumed, err := repro.LearnSource(repro.NewTraceSource(tr), opts)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	buf.Reset()
	if err := repro.SaveModel(&buf, resumed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Error("crash+resume cached model diverged")
	}
	check("crash+resume", dir)
}

// TestSynthCacheGoldenEquivalence runs the whole differential corpus
// (every example trace plus every simulated system) through the cache
// cold and then warm: both models must be byte-identical to the
// uncached one, and the warm run must answer every unique window from
// the cache without a single miss.
func TestSynthCacheGoldenEquivalence(t *testing.T) {
	for _, in := range diffInputs(t) {
		in := in
		t.Run(in.name, func(t *testing.T) {
			want := modelBytes(t, in.tr, repro.LearnOptions{})
			dir := t.TempDir()

			cold := openCache(t, dir)
			if got := modelBytes(t, in.tr, repro.LearnOptions{SynthCache: cold}); !bytes.Equal(got, want) {
				t.Error("cold-cache model diverged from the uncached model")
			}
			if st := cold.Stats(); st.Stores == 0 {
				t.Errorf("cold run stored nothing: %+v", st)
			}

			warm := openCache(t, dir)
			if got := modelBytes(t, in.tr, repro.LearnOptions{SynthCache: warm}); !bytes.Equal(got, want) {
				t.Error("warm-cache model diverged from the uncached model")
			}
			if st := warm.Stats(); st.Hits == 0 || st.Misses != 0 || st.Corrupt != 0 {
				t.Errorf("warm run stats %+v, want all hits", st)
			}
		})
	}
}

// TestSynthCacheSharedConcurrent races several learners on one cache
// directory — each with its own handle, the way independent processes
// share one — and then cold-starts a fresh run against the result:
// every concurrent model must be byte-identical to the uncached
// reference, no entry may be seen as corrupt, and the follow-up run
// must hit on every unique window.
func TestSynthCacheSharedConcurrent(t *testing.T) {
	tr := counterInput(t)
	want := modelBytes(t, tr, repro.LearnOptions{})
	dir := t.TempDir()

	const runs = 4
	outs := make([][]byte, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := repro.OpenSynthCache(dir)
			if err != nil {
				errs[i] = err
				return
			}
			m, err := repro.Learn(tr, repro.LearnOptions{SynthCache: c})
			if err != nil {
				errs[i] = err
				return
			}
			if st := c.Stats(); st.Corrupt != 0 {
				errs[i] = errors.New("concurrent run saw corrupt entries")
				return
			}
			var buf bytes.Buffer
			if err := repro.SaveModel(&buf, m); err != nil {
				errs[i] = err
				return
			}
			outs[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if !bytes.Equal(outs[i], want) {
			t.Errorf("concurrent run %d diverged from the uncached model", i)
		}
	}

	follow := openCache(t, dir)
	if got := modelBytes(t, tr, repro.LearnOptions{SynthCache: follow}); !bytes.Equal(got, want) {
		t.Error("follow-up model diverged")
	}
	if st := follow.Stats(); st.Hits == 0 || st.Misses != 0 {
		t.Errorf("follow-up run stats %+v, want all hits", st)
	}
}

// TestSynthCacheCorruptionFallsBack damages every stored entry and
// relearns: the checksums must reject them all, the run must fall back
// to fresh synthesis with a byte-identical model, and its republished
// entries must leave the directory fully warm again.
func TestSynthCacheCorruptionFallsBack(t *testing.T) {
	tr := counterInput(t)
	want := modelBytes(t, tr, repro.LearnOptions{})
	dir := t.TempDir()
	if got := modelBytes(t, tr, repro.LearnOptions{SynthCache: openCache(t, dir)}); !bytes.Equal(got, want) {
		t.Fatal("cold-cache model diverged")
	}
	damaged := corruptEntries(t, dir)

	hurt := openCache(t, dir)
	if got := modelBytes(t, tr, repro.LearnOptions{SynthCache: hurt}); !bytes.Equal(got, want) {
		t.Error("corrupted-cache model diverged from the uncached model")
	}
	st := hurt.Stats()
	if st.Corrupt != int64(damaged) {
		t.Errorf("detected %d corrupt entries, damaged %d", st.Corrupt, damaged)
	}
	if st.Hits != 0 {
		t.Errorf("corrupted run reported %d hits, want 0", st.Hits)
	}

	healed := openCache(t, dir)
	if got := modelBytes(t, tr, repro.LearnOptions{SynthCache: healed}); !bytes.Equal(got, want) {
		t.Error("post-repair model diverged")
	}
	if st := healed.Stats(); st.Misses != 0 || st.Corrupt != 0 {
		t.Errorf("post-repair run stats %+v, want a fully warm directory", st)
	}
}
