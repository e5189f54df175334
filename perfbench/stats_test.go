package main

import (
	"math"
	"testing"
)

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		q    float64
		rank uint64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{100_000, 0.999, 99_900, true},
		{0, 0.5, 0, false},
	} {
		rank, ok := quantileRank(c.n, c.q)
		if rank != c.rank || ok != c.ok {
			t.Errorf("quantileRank(%d, %g) = %d, %v; want %d, %v", c.n, c.q, rank, ok, c.rank, c.ok)
		}
	}
	var h hist
	for v := int64(0); v < 999; v++ {
		h.observe(v)
	}
	if _, ok := h.quantile(0.99); ok {
		t.Error("p99 of 999 samples reported with fewer than ten beyond it")
	}
	h.observe(999)
	if v, ok := h.quantile(0.99); !ok || v < 980 || v > 1000 {
		t.Errorf("p99 of 0..999 = %g, %v", v, ok)
	}
}

func TestHistQuantileAccuracy(t *testing.T) {
	var h hist
	for v := int64(1); v <= 1_000_000; v++ {
		h.observe(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got, ok := h.quantile(q)
		want := q * 1_000_000
		if !ok || math.Abs(got-want)/want > 1.0/64 {
			t.Errorf("q%g = %g (ok %v), want %g within 1/64", q, got, ok, want)
		}
	}
	var small hist
	for v := int64(0); v < 50; v++ {
		small.observe(v)
	}
	if got, _ := small.quantile(0.5); got != 24 {
		t.Errorf("median of 0..49 = %g, want 24 exactly", got)
	}
}

func TestInterquartileMeanIgnoresTails(t *testing.T) {
	// 100 calls: the slowest 20 were preempted, the fastest 5 hit a
	// cached path. Neither tail reaches the middle half.
	var xs []float64
	for i := 0; i < 5; i++ {
		xs = append(xs, 1)
	}
	for i := 0; i < 75; i++ {
		xs = append(xs, 100)
	}
	for i := 0; i < 20; i++ {
		xs = append(xs, 50_000)
	}
	if got := interquartileMean(xs); got != 100 {
		t.Errorf("interquartileMean = %g, want 100", got)
	}
	if got := interquartileMean([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("interquartileMean(1..4) = %g, want 2.5", got)
	}
	if got := interquartileMean([]float64{7}); got != 7 {
		t.Errorf("interquartileMean(7) = %g, want 7", got)
	}
	if got := interquartileMean(nil); got != 0 {
		t.Errorf("interquartileMean(nil) = %g, want 0", got)
	}
}
