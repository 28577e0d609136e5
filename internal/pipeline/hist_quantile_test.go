package pipeline

import (
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile returns the q-quantile of vs by the same rank rule the
// histogram uses (element at floor(q·n), clamped).
func exactQuantile(vs []int64, q float64) int64 {
	s := append([]int64(nil), vs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(q * float64(len(s)))
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// TestHistogramQuantileAccuracy pins the documented accuracy bound:
// with power-of-two buckets, an estimated quantile lands in the same
// or an adjacent bucket as the exact value — never off by more than a
// factor of two — over distributions shaped like the pipeline's
// latency data.
func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dists := map[string]func(i int) int64{
		"constant": func(int) int64 { return 4096 },
		"uniform":  func(int) int64 { return 1 + rng.Int63n(100000) },
		"linear":   func(i int) int64 { return int64(i + 1) },
		"powerlaw": func(int) int64 { return int64(1) << uint(rng.Intn(20)) },
		"bimodal": func(i int) int64 {
			if i%10 == 0 {
				return 1 << 20
			}
			return 100
		},
		"smallvals": func(i int) int64 { return int64(i%3 + 1) },
	}
	for name, gen := range dists {
		h := newHistogram(name, "ns")
		var vs []int64
		for i := 0; i < 5000; i++ {
			v := gen(i)
			vs = append(vs, v)
			h.Observe(v)
		}
		s := h.Summary()
		for _, pq := range []struct {
			q   float64
			got int64
		}{{0.50, s.P50}, {0.90, s.P90}, {0.99, s.P99}} {
			exact := exactQuantile(vs, pq.q)
			if db := bucketIndex(pq.got) - bucketIndex(exact); db < -1 || db > 1 {
				t.Errorf("%s p%.0f: estimate %d (bucket %d) vs exact %d (bucket %d): off by %d buckets",
					name, pq.q*100, pq.got, bucketIndex(pq.got), exact, bucketIndex(exact), db)
			}
		}
		// min/max are tracked exactly, and estimates stay inside them.
		min, max := exactQuantile(vs, 0), vs[0]
		for _, v := range vs {
			if v > max {
				max = v
			}
		}
		if s.Min != min || s.Max != max {
			t.Errorf("%s: summary min/max = %d/%d, exact %d/%d", name, s.Min, s.Max, min, max)
		}
		for _, p := range []int64{s.P50, s.P90, s.P95, s.P99} {
			if p < s.Min || p > s.Max {
				t.Errorf("%s: quantile %d outside [min=%d, max=%d]", name, p, s.Min, s.Max)
			}
		}
	}
}
