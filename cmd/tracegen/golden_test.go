package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/systems/counter"
	"repro/internal/systems/serial"
	"repro/internal/trace"
)

// gen runs one tracegen invocation into a temp file and returns the
// bytes it wrote.
func gen(t *testing.T, o options) []byte {
	t.Helper()
	o.out = filepath.Join(t.TempDir(), "out")
	if err := run(&o); err != nil {
		t.Fatalf("tracegen %+v: %v", o, err)
	}
	data, err := os.ReadFile(o.out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSeedModesByteIdentical is the seed-handling contract: for the
// same -system, -n and -seed, the streamed output equals the library's
// batch generator written as CSV, observation for observation, and a
// shorter stream is a prefix of a longer one.
func TestSeedModesByteIdentical(t *testing.T) {
	serialRun := func(n int, seed int64) func() (*trace.Trace, error) {
		w := serial.DefaultWorkload()
		w.Observations = n
		if seed != 0 {
			w.Seed = seed
		}
		return w.Run
	}
	counterRun := func(n int) func() (*trace.Trace, error) {
		c := counter.DefaultConfig()
		c.Observations = n
		return c.Run
	}
	cases := []struct {
		name  string
		opts  options
		obs   int
		batch func() (*trace.Trace, error)
	}{
		{name: "counter", opts: options{system: "counter"}, obs: 447, batch: experiments.GenCounter},
		{name: "counter n 1000", opts: options{system: "counter", length: 1000}, obs: 1000, batch: counterRun(1000)},
		{name: "serial default seed", opts: options{system: "serial", length: 128}, obs: 128, batch: serialRun(128, 0)},
		{name: "serial seed 7", opts: options{system: "serial", length: 64, seed: 7}, obs: 64, batch: serialRun(64, 7)},
		{name: "serial seed 3", opts: options{system: "serial", length: 96, seed: 3}, obs: 96, batch: serialRun(96, 3)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := gen(t, tc.opts)
			if rows := bytes.Count(got, []byte("\n")) - 1; rows != tc.obs {
				t.Errorf("wrote %d observations, want %d", rows, tc.obs)
			}
			tr, err := tc.batch()
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := trace.WriteCSV(&want, tr); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("tracegen and the batch generator differ:\ntracegen: %d bytes\nbatch:    %d bytes", len(got), want.Len())
			}
		})
	}

	// Different seeds must actually change the randomised workload.
	if bytes.Equal(
		gen(t, options{system: "serial", length: 96, seed: 3}),
		gen(t, options{system: "serial", length: 96, seed: 7}),
	) {
		t.Fatal("seeds 3 and 7 produced identical serial traces")
	}

	// Prefix monotonicity: a shorter stream is a byte prefix of a
	// longer one (same schedule, fewer rows).
	long := gen(t, options{system: "counter"})
	short := gen(t, options{system: "counter", length: 100})
	if !bytes.HasPrefix(long, short) {
		t.Fatal("a 100-observation counter trace is not a prefix of the default one")
	}
}

// TestGolden pins the exact bytes tracegen writes against committed
// golden files, so seed handling (and the CSV encoding) cannot drift
// silently.
func TestGolden(t *testing.T) {
	cases := []struct {
		golden string
		opts   []options // every invocation that must reproduce it
	}{
		{
			golden: "testdata/counter_447.csv",
			opts: []options{
				{system: "counter"},
				{system: "counter", length: 447},
			},
		},
		{
			golden: "testdata/serial_seed7_64.csv",
			opts: []options{
				{system: "serial", length: 64, seed: 7},
			},
		},
	}
	for _, tc := range cases {
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range tc.opts {
			if got := gen(t, o); !bytes.Equal(got, want) {
				t.Errorf("%+v does not reproduce %s (%d bytes, want %d)", o, tc.golden, len(got), len(want))
			}
		}
	}
}
