package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is
// not modified. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail
// percentile.
const minBeyond = 10

// tailPercentile picks the highest percentile of tailLadder with at
// least minBeyond of n samples beyond it and returns that percentile
// and its value. With fewer than 2·minBeyond samples no percentile
// qualifies, and the tail is the maximum, reported as percentile 100.
func tailPercentile(xs []float64) (pct, value float64) {
	n := float64(len(xs))
	for _, p := range tailLadder {
		if n*(100-p)/100 >= minBeyond-1e-9 {
			return p, quantile(xs, p/100)
		}
	}
	return 100, quantile(xs, 1)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSample reads one runtime/metrics value in bytes.
func memSample(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

const (
	heapLive    = "/memory/classes/heap/objects:bytes"
	heapAllocs  = "/gc/heap/allocs:bytes"
	heapSampleP = time.Millisecond
)

// meter brackets one iteration: process CPU time, bytes allocated, and
// the peak live heap sampled every heapSampleP by a goroutine that
// stop waits for.
type meter struct {
	cpu0   time.Duration
	alloc0 uint64
	done   chan struct{}
	wg     sync.WaitGroup
	peak   uint64
}

func startMeter() *meter {
	m := &meter{cpu0: cpuTime(), alloc0: memSample(heapAllocs), done: make(chan struct{})}
	m.peak = memSample(heapLive)
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(heapSampleP)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if v := memSample(heapLive); v > m.peak {
					m.peak = v
				}
			case <-m.done:
				return
			}
		}
	}()
	return m
}

// stop ends sampling and returns CPU seconds, MB allocated and peak
// live heap MB since start.
func (m *meter) stop() (cpuS, allocMB, peakMB float64) {
	close(m.done)
	m.wg.Wait()
	if v := memSample(heapLive); v > m.peak {
		m.peak = v
	}
	cpuS = (cpuTime() - m.cpu0).Seconds()
	allocMB = float64(memSample(heapAllocs)-m.alloc0) / 1e6
	peakMB = float64(m.peak) / 1e6
	return cpuS, allocMB, peakMB
}
