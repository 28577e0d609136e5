package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/experiments"
	"repro/internal/trace"
)

// TestCheckVCDAgainstItsOwnModel learns a model from a FIFO VCD the
// way t2m does, then checks the same file through monitor's check
// path: the VCD must be sampled on the model's signals and conform.
func TestCheckVCDAgainstItsOwnModel(t *testing.T) {
	dir := t.TempDir()
	vcd := filepath.Join(dir, "fifo.vcd")
	f, err := os.Create(vcd)
	if err != nil {
		t.Fatal(err)
	}
	if err := experiments.StreamFIFOVCD(f, 2000, 4); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	src, release, err := trace.Open(vcd, "", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	model, err := repro.LearnSource(src, repro.LearnOptions{})
	release()
	if err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(dir, "fifo.t2m")
	mf, err := os.Create(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := repro.SaveModel(mf, model); err != nil {
		t.Fatal(err)
	}
	if err := mf.Close(); err != nil {
		t.Fatal(err)
	}

	for _, informat := range []string{"", "vcd"} {
		code, err := run(&options{modelPath: modelPath, in: vcd, informat: informat, quiet: true})
		if err != nil || code != 0 {
			t.Errorf("monitor -informat %q on the model's own VCD: exit %d, err %v; want exit 0", informat, code, err)
		}
	}
}
