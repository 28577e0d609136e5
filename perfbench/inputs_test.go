package main

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/systems/integrator"
	"repro/internal/trace"
)

func TestInputsAreByteIdenticalForASeed(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		a, b := t.TempDir(), t.TempDir()
		ia, err := writeIngestInputs(a, seed)
		if err != nil {
			t.Fatal(err)
		}
		ib, err := writeIngestInputs(b, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range [][2]string{{ia.csvPath, ib.csvPath}, {ia.ftracePath, ib.ftracePath}} {
			x, err := os.ReadFile(p[0])
			if err != nil {
				t.Fatal(err)
			}
			y, err := os.ReadFile(p[1])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(x, y) {
				t.Errorf("seed %d: %s differs between two generations", seed, p[0])
			}
		}

		s1, err := serialStream(seed)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := serialStream(seed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(s1, s2) {
			t.Errorf("seed %d: serial stream differs between two generations", seed)
		}

		six1, err := buildSix(seed)
		if err != nil {
			t.Fatal(err)
		}
		six2, err := buildSix(seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := range six1 {
			var x, y bytes.Buffer
			if err := trace.WriteCSV(&x, six1[i].tr); err != nil {
				t.Fatal(err)
			}
			if err := trace.WriteCSV(&y, six2[i].tr); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(x.Bytes(), y.Bytes()) {
				t.Errorf("seed %d: %s trace differs between two generations", seed, six1[i].name)
			}
		}
	}
}

func TestSeedsMoveTheCutOnly(t *testing.T) {
	if got := cut(liveSteps, 1); got != liveSteps {
		t.Errorf("default seed cuts at %d, want %d", got, liveSteps)
	}
	for seed := int64(-50); seed < 500; seed++ {
		got := cut(liveSteps, seed)
		if got < liveSteps*98/100 || got > liveSteps*102/100 {
			t.Fatalf("seed %d cuts at %d, outside 2%% of %d", seed, got, liveSteps)
		}
	}
	a, err := serialStream(2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := serialStream(3)
	if err != nil {
		t.Fatal(err)
	}
	short, long := a, b
	if len(short) > len(long) {
		short, long = long, short
	}
	if len(a) == len(b) || !bytes.HasPrefix(long, short) {
		t.Error("two seeds should cut one serial schedule at two different lengths")
	}
}

func TestIntegratorCSVMatchesTheSystemGenerator(t *testing.T) {
	cfg := integrator.DefaultConfig()
	cfg.Observations = 5000
	tr, err := cfg.Run()
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := trace.WriteCSV(&want, tr); err != nil {
		t.Fatal(err)
	}
	if err := writeIntegratorCSV(&got, cfg, cfg.Observations); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("streamed integrator CSV differs from trace.WriteCSV over integrator.Config.Run")
	}
}
