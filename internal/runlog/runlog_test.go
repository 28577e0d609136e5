package runlog

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/pipeline"
)

func testRecord(tool string, wallMS float64, at time.Time) *Record {
	return &Record{
		Version:   RecordVersion,
		Tool:      tool,
		CreatedAt: at.UTC().Format(time.RFC3339Nano),
		Config:    map[string]any{"steps": 1000, "workers": 4},
		Inputs:    []pipeline.InputDigest{{Path: "trace.csv", SHA256: "abc", Bytes: 10}},
		WallMS:    wallMS,
		Verdict:   VerdictOK,
		Counters:  map[string]int64{"solver_calls_total": 7},
	}
}

func TestStorePutListGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var digests []string
	for i := 0; i < 3; i++ {
		d, err := s.Put(testRecord("t2m", float64(100+i), base.Add(time.Duration(i)*time.Minute)))
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, d)
	}
	// Idempotent: same record, same digest, no new file.
	d, err := s.Put(testRecord("t2m", 100, base))
	if err != nil {
		t.Fatal(err)
	}
	if d != digests[0] {
		t.Fatalf("re-put digest %s != %s", d, digests[0])
	}

	entries, corrupt, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 0 || len(entries) != 3 {
		t.Fatalf("List = %d entries, %d corrupt; want 3, 0", len(entries), corrupt)
	}
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Record.created().After(entries[i].Record.created()) {
			t.Fatal("entries not sorted by created_at")
		}
	}
	if entries[0].Record.WallMS != 100 || entries[2].Record.WallMS != 102 {
		t.Fatalf("order: %v, %v", entries[0].Record.WallMS, entries[2].Record.WallMS)
	}

	got, err := s.Get(digests[1][:8])
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest != digests[1] || got.Record.WallMS != 101 {
		t.Fatalf("Get = %+v", got)
	}
	if _, err := s.Get("ffffffffffff"); err == nil {
		t.Fatal("Get of absent prefix succeeded")
	}
	if _, err := s.Get(""); err == nil {
		t.Fatal("Get of ambiguous prefix succeeded")
	}
	if s.Dir() == "" || s.ProfileDir() == "" {
		t.Fatal("empty dirs")
	}
}

func TestStoreSkipsCorruptRecords(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	good, err := s.Put(testRecord("t2m", 100, base))
	if err != nil {
		t.Fatal(err)
	}

	recDir := filepath.Join(s.Dir(), "records")
	// 1: content that no longer matches its address (bit rot).
	if err := os.WriteFile(filepath.Join(recDir, good[:2], "0"+good[1:]+".json"), []byte(`{"version":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// 2: valid digest name but invalid JSON.
	junk := []byte("not json at all")
	sum := sha256.Sum256(junk)
	jd := hex.EncodeToString(sum[:])
	os.MkdirAll(filepath.Join(recDir, jd[:2]), 0o755)
	if err := os.WriteFile(filepath.Join(recDir, jd[:2], jd+".json"), junk, 0o644); err != nil {
		t.Fatal(err)
	}
	// 3: schema-invalid record with a correct digest.
	bad, _ := json.Marshal(&Record{Version: 99, Tool: "x", CreatedAt: "2026-01-01T00:00:00Z"})
	sum = sha256.Sum256(bad)
	bd := hex.EncodeToString(sum[:])
	os.MkdirAll(filepath.Join(recDir, bd[:2]), 0o755)
	if err := os.WriteFile(filepath.Join(recDir, bd[:2], bd+".json"), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	// 4: non-record file, ignored silently.
	os.WriteFile(filepath.Join(recDir, good[:2], "README"), []byte("hi"), 0o644)

	entries, corrupt, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Digest != good {
		t.Fatalf("List kept %d entries, want only the good one", len(entries))
	}
	if corrupt != 3 {
		t.Fatalf("corrupt = %d, want 3", corrupt)
	}
}

func TestRecordValidate(t *testing.T) {
	base := time.Now()
	cases := []struct {
		mut  func(*Record)
		want bool
	}{
		{func(r *Record) {}, true},
		{func(r *Record) { r.Version = 2 }, false},
		{func(r *Record) { r.Tool = "" }, false},
		{func(r *Record) { r.CreatedAt = "yesterday" }, false},
		{func(r *Record) { r.WallMS = -1 }, false},
	}
	for i, c := range cases {
		r := testRecord("t2m", 10, base)
		c.mut(r)
		if got := r.Validate() == nil; got != c.want {
			t.Errorf("case %d: valid=%v, want %v", i, got, c.want)
		}
	}
	var rn *Record
	if rn.Validate() == nil {
		t.Error("nil record validates")
	}
}

func TestConfigKeyGroupsWorkloads(t *testing.T) {
	base := time.Now()
	a1 := testRecord("t2m", 100, base)
	a2 := testRecord("t2m", 200, base.Add(time.Hour)) // same workload, different measurement
	b := testRecord("t2m", 100, base)
	b.Config["workers"] = 8 // different workload
	c := testRecord("monitor", 100, base)

	if a1.ConfigKey() != a2.ConfigKey() {
		t.Error("measurement fields leaked into ConfigKey")
	}
	if a1.ConfigKey() == b.ConfigKey() {
		t.Error("config change did not change ConfigKey")
	}
	if a1.ConfigKey() == c.ConfigKey() {
		t.Error("tool change did not change ConfigKey")
	}
	d := testRecord("t2m", 100, base)
	d.Inputs[0].SHA256 = "different"
	if a1.ConfigKey() == d.ConfigKey() {
		t.Error("input digest change did not change ConfigKey")
	}
}

func TestRecordName(t *testing.T) {
	r := testRecord("t2m", 1, time.Now())
	if got := r.Name(); got != "t2m trace.csv" {
		t.Errorf("Name = %q", got)
	}
	r.Inputs = nil
	if got := r.Name(); got != "t2m" {
		t.Errorf("Name = %q", got)
	}
	r.Config["bench"] = "php-9-8"
	if got := r.Name(); got != "php-9-8" {
		t.Errorf("Name = %q", got)
	}
}

func TestMedianAndMAD(t *testing.T) {
	if got := Median(nil); got != 0 {
		t.Errorf("Median(nil) = %v", got)
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median odd = %v", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("Median even = %v", got)
	}
	if got := MAD([]float64{1, 2, 3, 100}, 2.5); got != 1 {
		t.Errorf("MAD = %v, want 1", got)
	}
	if got := MAD(nil, 0); got != 0 {
		t.Errorf("MAD(nil) = %v", got)
	}
}

// benchEntries builds an archive history: for each wall time in walls,
// one record of the same workload, one minute apart.
func benchEntries(t *testing.T, name string, walls ...float64) []Entry {
	t.Helper()
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var out []Entry
	for i, w := range walls {
		r := &Record{
			Version:   RecordVersion,
			Tool:      "bench",
			CreatedAt: base.Add(time.Duration(i) * time.Minute).UTC().Format(time.RFC3339Nano),
			Config:    map[string]any{"bench": name},
			WallMS:    w,
		}
		out = append(out, Entry{Digest: fmt.Sprintf("%s-%d", name, i), Record: r})
	}
	return out
}

func TestRegressFlagsInjectedRegression(t *testing.T) {
	// Quiet baseline at ~100ms, candidate +30%: must be flagged at the
	// default 25% threshold.
	entries := benchEntries(t, "ingest", 100, 101, 99, 100, 102, 130)
	res := Regress(entries, RegressOptions{})
	if len(res) != 1 {
		t.Fatalf("got %d results", len(res))
	}
	r := res[0]
	if r.Skipped || !r.Regressed {
		t.Fatalf("injected 30%% regression not flagged: %+v", r)
	}
	if r.BaselineN != 5 || r.BaselineMedianMS != 100 {
		t.Errorf("baseline = n%d median %v", r.BaselineN, r.BaselineMedianMS)
	}

	// Same history, candidate within threshold: passes.
	res = Regress(benchEntries(t, "ingest", 100, 101, 99, 100, 102, 110), RegressOptions{})
	if res[0].Regressed {
		t.Fatalf("10%% slowdown flagged at 25%% threshold: %+v", res[0])
	}
}

func TestRegressDeterministic(t *testing.T) {
	entries := append(benchEntries(t, "b-noisy", 100, 300, 100, 280, 120, 310),
		benchEntries(t, "a-quiet", 50, 50, 50, 80)...)
	r1 := Regress(entries, RegressOptions{})
	r2 := Regress(entries, RegressOptions{})
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("Regress is not deterministic over the same entries")
	}
	if len(r1) != 2 || r1[0].Name != "a-quiet" || r1[1].Name != "b-noisy" {
		t.Fatalf("results not sorted by name: %+v", r1)
	}
}

func TestRegressMADAbsorbsNoisyBaseline(t *testing.T) {
	// History swings between ~100 and ~300: median 200, MAD 100. A
	// 310ms candidate is within the historical envelope
	// (limit = 200 + 4·1.4826·100 ≈ 793) even though it is +55% over
	// the median.
	entries := benchEntries(t, "noisy", 100, 300, 100, 300, 100, 300, 310)
	res := Regress(entries, RegressOptions{})
	if res[0].Regressed {
		t.Fatalf("noisy-baseline candidate flagged: %+v", res[0])
	}
	// But a candidate beyond even the MAD envelope is flagged.
	entries = benchEntries(t, "noisy", 100, 300, 100, 300, 100, 300, 900)
	res = Regress(entries, RegressOptions{})
	if !res[0].Regressed {
		t.Fatalf("beyond-envelope candidate not flagged: %+v", res[0])
	}
}

func TestRegressSkipsAndWindow(t *testing.T) {
	// Single run: no baseline.
	res := Regress(benchEntries(t, "solo", 100), RegressOptions{})
	if !res[0].Skipped || res[0].Reason == "" {
		t.Fatalf("single-run workload not skipped: %+v", res[0])
	}
	// Sub-min-wall baseline (history long enough to be judged):
	// skipped, not judged.
	res = Regress(benchEntries(t, "tiny", 1, 1, 1, 2), RegressOptions{MinWallMS: 50})
	if !res[0].Skipped || !strings.Contains(res[0].Reason, "min-wall") {
		t.Fatalf("sub-min-wall workload not skipped: %+v", res[0])
	}
	// Window: only the last N baselines count. Old slow era (1000ms)
	// outside the window must not mask a regression against the recent
	// fast era (100ms).
	walls := []float64{1000, 1000, 1000, 1000, 100, 101, 99, 100, 140}
	res = Regress(benchEntries(t, "windowed", walls...), RegressOptions{Window: 4})
	if !res[0].Regressed {
		t.Fatalf("windowed regression not flagged: %+v", res[0])
	}
	if res[0].BaselineN != 4 {
		t.Fatalf("window not applied: baseline n = %d", res[0].BaselineN)
	}
}

// TestRegressInsufficientHistory is the regression test for the
// degenerate-MAD bug: with fewer than 3 baseline runs the envelope
// collapses (1 run ⇒ median == the single measurement and MAD 0, so
// any jitter "regresses"; 2 runs ⇒ the spread between them is pure
// jitter). Short histories must be skipped with an "insufficient
// history" verdict, never judged.
func TestRegressInsufficientHistory(t *testing.T) {
	cases := []struct {
		name     string
		walls    []float64 // last entry is the candidate
		baseline int
	}{
		{"zero-baseline", []float64{130}, 0},
		{"one-baseline", []float64{100, 130}, 1},
		{"two-baseline", []float64{100, 100, 130}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := Regress(benchEntries(t, tc.name, tc.walls...), RegressOptions{})
			if len(res) != 1 {
				t.Fatalf("got %d results", len(res))
			}
			r := res[0]
			if !r.Skipped || r.Regressed {
				t.Fatalf("%d-run baseline judged instead of skipped: %+v", tc.baseline, r)
			}
			if !strings.Contains(r.Reason, "insufficient history") {
				t.Fatalf("reason = %q, want insufficient history", r.Reason)
			}
			if r.BaselineN != tc.baseline {
				t.Fatalf("BaselineN = %d, want %d", r.BaselineN, tc.baseline)
			}
		})
	}

	// The exact boundary: 3 baseline runs are judged (and a +30%
	// candidate flagged); MinBaseline 1 opts back into judging a
	// single-run history.
	res := Regress(benchEntries(t, "at-min", 100, 101, 99, 130), RegressOptions{})
	if res[0].Skipped || !res[0].Regressed {
		t.Fatalf("3-run baseline not judged: %+v", res[0])
	}
	res = Regress(benchEntries(t, "optin", 100, 130), RegressOptions{MinBaseline: 1})
	if res[0].Skipped || !res[0].Regressed {
		t.Fatalf("MinBaseline=1 single-run baseline not judged: %+v", res[0])
	}
}

func TestCompareDeltas(t *testing.T) {
	a := testRecord("t2m", 100, time.Now())
	b := testRecord("t2m", 150, time.Now())
	b.Counters["solver_calls_total"] = 14
	b.Metrics = map[string]float64{"peak_heap_mb": 12}
	a.Model = &pipeline.ModelManifest{States: 4, Transitions: 9}
	b.Model = &pipeline.ModelManifest{States: 5, Transitions: 9}
	ds := Compare(a, b)
	byKey := map[string]Delta{}
	for _, d := range ds {
		byKey[d.Key] = d
	}
	if d := byKey["wall_ms"]; d.A != 100 || d.B != 150 || d.Pct != 50 {
		t.Errorf("wall_ms delta = %+v", d)
	}
	if d := byKey["counter:solver_calls_total"]; d.A != 7 || d.B != 14 || d.Pct != 100 {
		t.Errorf("counter delta = %+v", d)
	}
	if d := byKey["metric:peak_heap_mb"]; d.A != 0 || d.B != 12 || d.Pct != 0 {
		t.Errorf("one-sided metric delta = %+v", d)
	}
	if d := byKey["model:states"]; d.A != 4 || d.B != 5 {
		t.Errorf("model delta = %+v", d)
	}
	for i := 1; i < len(ds); i++ {
		if ds[i-1].Key >= ds[i].Key {
			t.Fatal("deltas not sorted")
		}
	}
}

func TestImportBenchJSON(t *testing.T) {
	doc := `{"benchmark":"solve","results":[
		{"name":"php-9-8","status":"UNSAT","wall_ms":486.9,"conflicts":27397},
		{"name":"BenchmarkIngestBatch100k","ns_per_op":93406960,"peak_heap_mb":18.44}
	]}`
	stamp := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	recs, err := ImportBench([]byte(doc), stamp)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Name() != "php-9-8" || recs[0].WallMS != 486.9 {
		t.Errorf("rec0 = %+v", recs[0])
	}
	if recs[0].Metrics["conflicts"] != 27397 {
		t.Errorf("rec0 metrics = %v", recs[0].Metrics)
	}
	if recs[1].WallMS != 93406960.0/1e6 {
		t.Errorf("ns_per_op row wall = %v", recs[1].WallMS)
	}
	if !recs[0].created().Before(recs[1].created()) {
		t.Error("row order not preserved in stamps")
	}
	for _, r := range recs {
		if err := r.Validate(); err != nil {
			t.Errorf("imported record invalid: %v", err)
		}
	}
}

func TestImportBenchText(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: repro
BenchmarkIngestBatch100k-8   	       3	  93406960 ns/op	26987066 B/op	  281051 allocs/op
BenchmarkIngestStreaming100k-8 	       3	  25292942 ns/op
PASS
`
	recs, err := ImportBench([]byte(out), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	// The -8 procs suffix is stripped so text and JSON rows share a
	// ConfigKey group.
	if recs[0].Name() != "BenchmarkIngestBatch100k" {
		t.Errorf("rec0 name = %q", recs[0].Name())
	}
	if recs[0].WallMS != 93406960.0/1e6 {
		t.Errorf("rec0 wall = %v", recs[0].WallMS)
	}
	jsonRow, err := ImportBench([]byte(`{"benchmark":"ingest","results":[{"name":"BenchmarkIngestBatch100k","ns_per_op":93406960}]}`), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if jsonRow[0].ConfigKey() != recs[0].ConfigKey() {
		t.Error("text and JSON rows of the same bench landed in different groups")
	}
}

func TestImportBenchErrors(t *testing.T) {
	for _, bad := range []string{"", "no bench lines here\n", `{"benchmark":"x","results":[]}`, `{"benchmark":"x","results":[{"status":"ok"}]}`, `{"benchmark":"x","results":[{"name":"a"}]}`, `{broken`} {
		if _, err := ImportBench([]byte(bad), time.Now()); err == nil {
			t.Errorf("ImportBench(%.30q) succeeded", bad)
		}
	}
}

// TestRegressOnRealBenchTrajectory runs the full import → archive →
// regress flow over the repo's checked-in BENCH files — the exact CI
// gate path. A fresh import identical to the baseline must pass; a
// +30% candidate on one row must fail.
func TestRegressOnRealBenchTrajectory(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	putAll := func(stamp time.Time, mutate func(*Record)) {
		t.Helper()
		for _, f := range []string{"../../BENCH_ingest.json", "../../BENCH_solve.json"} {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Skipf("bench file %s unavailable: %v", f, err)
			}
			recs, err := ImportBench(data, stamp)
			if err != nil {
				t.Fatalf("import %s: %v", f, err)
			}
			for _, r := range recs {
				if mutate != nil {
					mutate(r)
				}
				if _, err := s.Put(r); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	putAll(base, nil)                // archived baseline
	putAll(base.Add(time.Hour), nil) // identical fresh run
	entries, corrupt, err := s.List()
	if err != nil || corrupt != 0 {
		t.Fatalf("List: %v, %d corrupt", err, corrupt)
	}
	// MinBaseline 1 mirrors the CI gate's -min-runs 1: the archived
	// baseline is a single checked-in measurement per workload.
	opts := RegressOptions{Threshold: 0.25, MinWallMS: 50, MinBaseline: 1}
	res := Regress(entries, opts)
	for _, r := range res {
		if r.Regressed {
			t.Errorf("identical re-run flagged: %+v", r)
		}
	}
	if !reflect.DeepEqual(res, Regress(entries, opts)) {
		t.Fatal("regress over real trajectory not deterministic")
	}

	// Inject +30% wall on every row of a third run: every non-skipped
	// workload must flag.
	putAll(base.Add(2*time.Hour), func(r *Record) { r.WallMS *= 1.30 })
	entries, _, err = s.List()
	if err != nil {
		t.Fatal(err)
	}
	var flagged, judged int
	for _, r := range Regress(entries, opts) {
		if r.Skipped {
			continue
		}
		judged++
		if r.Regressed {
			flagged++
		}
	}
	if judged == 0 {
		t.Fatal("no workloads judged on real trajectory")
	}
	if flagged != judged {
		t.Fatalf("injected +30%%: flagged %d of %d judged workloads", flagged, judged)
	}
}
