// Streaming trace generators: unlike the Gen* functions, these write
// multi-million-step traces directly to an io.Writer without ever
// materialising a trace.Trace, so the ingestion benchmarks can measure
// decode + windowing cost in isolation and the bounded-memory tests
// can learn from traces far larger than the test's heap ceiling.
package experiments

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"time"

	"repro"
	"repro/internal/pipeline"
	"repro/internal/systems"
	"repro/internal/trace"
)

// StreamCounterCSV writes a steps-observation trace of a modular
// counter (count:int cycling 0 … mod−1) in the tool's CSV format. The
// predicate sequence of this trace is period-mod, so its model stays a
// handful of states no matter how long the trace runs — the shape of
// input the paper's streaming argument is about.
func StreamCounterCSV(w io.Writer, steps, mod int) error {
	if mod < 2 {
		mod = 8
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString("count:int\n"); err != nil {
		return err
	}
	buf := make([]byte, 0, 16)
	for i := 0; i < steps; i++ {
		buf = strconv.AppendInt(buf[:0], int64(i%mod), 10)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// StreamScheduleCSV drives a registered simulated system (see
// internal/systems) along its deterministic workload schedule and
// writes the observations in the tool's CSV format, row by row in
// O(1) memory. The schedules are prefix-monotone, so for any steps the
// output is byte-identical to a prefix of WriteCSV over the
// batch-generated trace with the same seed — tracegen relies on this
// to make its -steps streaming mode and its batch mode agree.
func StreamScheduleCSV(w io.Writer, name string, seed int64, steps int) error {
	sys, err := systems.Open(name)
	if err != nil {
		return err
	}
	if steps < 1 {
		return fmt.Errorf("stream %s: need at least 1 observation", name)
	}
	sch := sys.Schema()
	cw := csv.NewWriter(w)
	header := make([]string, sch.Len())
	for i := 0; i < sch.Len(); i++ {
		v := sch.Var(i)
		header[i] = v.Name + ":" + v.Type.String()
		if v.Role == trace.Input {
			header[i] += ":input"
		}
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, sch.Len())
	emit := func(obs trace.Observation) error {
		for j, v := range obs {
			row[j] = v.String()
		}
		return cw.Write(row)
	}
	sys.Reset()
	next := sys.Schedule(seed)
	count := 0
	if obs, ok := sys.Init(); ok {
		if err := emit(obs); err != nil {
			return err
		}
		count++
	}
	for ; count < steps; count++ {
		obs, err := sys.Step(next())
		if err != nil {
			return fmt.Errorf("stream %s: observation %d: %w", name, count, err)
		}
		if err := emit(obs); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// StreamFIFOVCD writes a steps-timestamp VCD waveform of a FIFO whose
// occupancy ramps between empty and depth (a triangle wave, one change
// per cycle) — the hardware-flavoured counterpart of StreamCounterCSV
// for the VCD ingestion path. The single watched signal is
// fifo.level, an 8-bit bus.
func StreamFIFOVCD(w io.Writer, steps, depth int) error {
	if depth < 1 {
		depth = 4
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	header := "$timescale 1ns $end\n" +
		"$scope module fifo $end\n" +
		"$var wire 8 ! level $end\n" +
		"$upscope $end\n" +
		"$enddefinitions $end\n" +
		"$dumpvars\nb0 !\n$end\n"
	if _, err := bw.WriteString(header); err != nil {
		return err
	}
	level, dir := 0, 1
	buf := make([]byte, 0, 32)
	for i := 0; i < steps; i++ {
		if level == depth {
			dir = -1
		} else if level == 0 {
			dir = 1
		}
		level += dir
		buf = append(buf[:0], '#')
		buf = strconv.AppendInt(buf, int64(i+1), 10)
		buf = append(buf, '\n', 'b')
		buf = strconv.AppendInt(buf, int64(level), 2)
		buf = append(buf, ' ', '!', '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	// Closing timestamp so the final change is flushed as its own
	// observation by the sampler.
	buf = append(buf[:0], '#')
	buf = strconv.AppendInt(buf, int64(steps+1), 10)
	buf = append(buf, '\n')
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	return bw.Flush()
}

// IngestRow compares the batch and streaming ingestion paths on one
// generated trace: wall time, peak live heap, and whether the two
// learned automata are byte-identical (they must be).
type IngestRow struct {
	Steps      int
	BatchWall  time.Duration
	StreamWall time.Duration
	BatchPeak  uint64 // bytes
	StreamPeak uint64 // bytes
	ObsPerSec  int64  // streaming decode+window rate
	States     int
	Identical  bool
}

// RunIngest learns a modular-counter CSV trace of each requested
// length through both paths and reports the comparison. The trace
// bytes are generated once and replayed from memory, so the
// measurement isolates decode + windowing + learning from disk I/O.
func RunIngest(stepsList []int) ([]IngestRow, error) {
	var rows []IngestRow
	for _, steps := range stepsList {
		var buf bytes.Buffer
		if err := StreamCounterCSV(&buf, steps, 8); err != nil {
			return nil, err
		}
		data := buf.Bytes()
		opts := withHooks(repro.LearnOptions{})

		runtime.GC()
		hs := pipeline.StartHeapSampler(time.Millisecond)
		t0 := time.Now()
		tr, err := trace.ReadCSV(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		mBatch, err := repro.Learn(tr, opts)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", steps, err)
		}
		batchWall := time.Since(t0)
		batchPeak := hs.Stop()
		// Keep only what the comparison needs: the batch model retains
		// the expanded predicate sequence (O(n) strings), which would
		// otherwise sit in the live set and skew the streaming
		// measurement's GC pacing.
		batchAut := mBatch.Automaton.String()
		tr, mBatch = nil, nil
		_ = tr

		runtime.GC()
		hs = pipeline.StartHeapSampler(time.Millisecond)
		t0 = time.Now()
		// NewBytes selects the zero-copy decode path — the same one
		// OpenBytes serves for on-disk traces (mmap'd when possible).
		src, err := trace.NewCSVSource(trace.NewBytes(data))
		if err != nil {
			return nil, err
		}
		mStream, err := repro.LearnSource(src, opts)
		if err != nil {
			return nil, fmt.Errorf("stream %d: %w", steps, err)
		}
		streamWall := time.Since(t0)
		streamPeak := hs.Stop()

		var obsPerSec int64
		for _, st := range mStream.Stages {
			if st.Name == "predicate" {
				obsPerSec = st.Counter("obs_per_sec")
			}
		}
		rows = append(rows, IngestRow{
			Steps:      steps,
			BatchWall:  batchWall,
			StreamWall: streamWall,
			BatchPeak:  batchPeak,
			StreamPeak: streamPeak,
			ObsPerSec:  obsPerSec,
			States:     mStream.States,
			Identical:  batchAut == mStream.Automaton.String(),
		})
	}
	return rows, nil
}
