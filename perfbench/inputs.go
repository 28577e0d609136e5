package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/experiments"
	"repro/internal/systems/integrator"
	"repro/internal/systems/rtlinux"
	"repro/internal/systems/serial"
	"repro/internal/trace"
)

// jitter maps a benchmark seed to an offset in [-100, 100]; the default
// seed 1 maps to 0.
func jitter(seed int64) int {
	j := int(((seed-1)%201*97%201 + 201) % 201)
	if j > 100 {
		j -= 201
	}
	return j
}

// cut is where a workload cuts a canonical schedule of base steps for
// the seed: within 2% of base, and exactly base at the default seed.
// Every workload runs its systems' canonical schedules (the paper's own
// generator seeds); the benchmark seed only moves the cut. Changing the
// generator seeds themselves would change the learning problem, not
// just the input: serial schedule seeds 2 and 4 turn a 5 s live replay
// into minutes.
func cut(base int, seed int64) int { return base + base*jitter(seed)/5000 }

// Input sizes at the default seed.
const (
	ingestCSVRows = 2_000_000
	ingestEvents  = 4000
	liveSteps     = 100_000
)

// writeIntegratorCSV streams an n-row integrator trace in the tool's
// CSV format. It replays integrator.Config.Run's input schedule
// without materialising the trace, so its bytes equal trace.WriteCSV
// over cfg.Run() with cfg.Observations = n.
func writeIntegratorCSV(w io.Writer, cfg integrator.Config, n int) error {
	g, err := integrator.New(cfg.Limit)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString("ip:int:input,op:int\n"); err != nil {
		return err
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	inputs := []int64{-1, 0, 1}
	buf := make([]byte, 0, 32)
	for rows := 0; rows < n; {
		ip := inputs[r.Intn(len(inputs))]
		run := 1 + r.Intn(cfg.MaxRun)
		for i := 0; i < run && rows < n; i++ {
			buf = strconv.AppendInt(buf[:0], ip, 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, g.Output(), 10)
			buf = append(buf, '\n')
			if _, err := bw.Write(buf); err != nil {
				return err
			}
			if err := g.Step(ip); err != nil {
				return err
			}
			rows++
		}
	}
	return bw.Flush()
}

// ingestInputs are the two on-disk traces of the ingest workload.
type ingestInputs struct {
	csvPath, ftracePath, task string
}

// writeIngestInputs generates the ingest workload's files in dir.
func writeIngestInputs(dir string, seed int64) (ingestInputs, error) {
	in := ingestInputs{
		csvPath:    filepath.Join(dir, "integrator.csv"),
		ftracePath: filepath.Join(dir, "rtlinux.ftrace"),
	}
	f, err := os.Create(in.csvPath)
	if err != nil {
		return in, err
	}
	err = writeIntegratorCSV(f, integrator.DefaultConfig(), cut(ingestCSVRows, seed))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return in, fmt.Errorf("integrator csv: %w", err)
	}

	cfg := rtlinux.DefaultConfig()
	cfg.Events = cut(ingestEvents, seed)
	sim, err := rtlinux.New(cfg)
	if err != nil {
		return in, err
	}
	if _, err := sim.Run(); err != nil {
		return in, err
	}
	in.task = sim.MonitoredTask()
	if err := os.WriteFile(in.ftracePath, []byte(sim.FtraceLog()), 0o644); err != nil {
		return in, fmt.Errorf("ftrace log: %w", err)
	}
	return in, nil
}

// sixSystem is one of the paper's six benchmark traces, in memory.
type sixSystem struct {
	name string
	tr   *trace.Trace
}

// buildSix generates the paper's six benchmark traces in Table I
// order. The Linux trace comes straight from the simulator's event
// list: the ftrace rendering and re-parse the paper's tooling does
// would add seconds of set-up without changing the trace.
func buildSix(seed int64) ([]sixSystem, error) {
	slot, err := experiments.GenUSBSlot()
	if err != nil {
		return nil, err
	}
	attach, err := experiments.GenUSBAttach()
	if err != nil {
		return nil, err
	}
	counter, err := experiments.GenCounter()
	if err != nil {
		return nil, err
	}
	sw := serial.DefaultWorkload()
	sw.Observations = cut(sw.Observations, seed)
	ser, err := sw.Run()
	if err != nil {
		return nil, err
	}
	lc := rtlinux.DefaultConfig()
	lc.Events = cut(lc.Events, seed)
	sim, err := rtlinux.New(lc)
	if err != nil {
		return nil, err
	}
	linux, err := sim.Run()
	if err != nil {
		return nil, err
	}
	ic := integrator.DefaultConfig()
	ic.Observations = cut(ic.Observations, seed)
	integ, err := ic.Run()
	if err != nil {
		return nil, err
	}
	return []sixSystem{
		{"USB Slot", slot}, {"USB Attach", attach}, {"Counter", counter},
		{"Serial", ser}, {"Linux Kernel", linux}, {"Integrator", integ},
	}, nil
}

// serialStream renders the live workload's stream: the Serial system's
// canonical schedule (schedule seed 1) as CSV, cut at a seed-dependent
// length.
func serialStream(seed int64) ([]byte, error) {
	var buf bytes.Buffer
	err := experiments.StreamScheduleCSV(&buf, "serial", 1, cut(liveSteps, seed))
	return buf.Bytes(), err
}
