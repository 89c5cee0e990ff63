package main

import (
	"fmt"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- { // unsorted input
		s.add(float64(i))
	}
	sum := summarize(s)
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.01, 1}, {0.5, 50}, {0.505, 51}, {0.99, 99}, {0.999, 100}, {1, 100},
	} {
		if got := sum.q(c.q); got != c.want {
			t.Errorf("q(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if sum.max() != 100 || sum.n() != 100 {
		t.Errorf("max %v n %d, want 100 100", sum.max(), sum.n())
	}
}

func TestQuantileSmallAndEmpty(t *testing.T) {
	if got := summarize(nil).q(0.99); got != 0 {
		t.Errorf("empty q = %v, want 0", got)
	}
	one := summarize(samples{7})
	if one.q(0.01) != 7 || one.q(0.99) != 7 || one.max() != 7 {
		t.Errorf("single sample: %v %v %v", one.q(0.01), one.q(0.99), one.max())
	}
	// With 10 samples the p99 is the maximum, not an interpolation past it.
	ten := summarize(samples{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if ten.q(0.99) != 10 || ten.q(0.5) != 5 {
		t.Errorf("ten samples: p99 %v p50 %v, want 10 5", ten.q(0.99), ten.q(0.5))
	}
}

func TestMedianAndUnits(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	var s samples
	s.addDur(1500*time.Microsecond, time.Millisecond)
	if s[0] != 1.5 {
		t.Errorf("1500us in ms = %v", s[0])
	}
	if ratio(1, 0) != 0 || ratio(1, 4) != 0.25 {
		t.Error("ratio")
	}
}

func TestQuietWindowsAreTheLessStolenHalf(t *testing.T) {
	for _, c := range []struct {
		steal []float64
		want  []int
	}{
		{[]float64{0.3, 0, 0.1, 0.2, 0.4}, []int{1, 2, 3}},
		{[]float64{0.3, 0, 0.1, 0.4}, []int{1, 2}},
		{[]float64{0.1, 0.1, 0.1, 0.3}, []int{0, 1, 2}},
		{[]float64{0, 0, 0, 0}, []int{0, 1, 2, 3}},
	} {
		var got []int
		for i := range c.steal {
			if quiet(c.steal, i) {
				got = append(got, i)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("quiet windows of %v = %v, want %v", c.steal, got, c.want)
		}
	}
}

func TestStealFrac(t *testing.T) {
	prev := cpuTicks{total: 1000, steal: 50}
	if got := (cpuTicks{total: 1200, steal: 100}).stealFrac(prev); got != 0.25 {
		t.Errorf("stealFrac = %v, want 0.25", got)
	}
	if got := prev.stealFrac(prev); got != 0 {
		t.Errorf("stealFrac over no time = %v, want 0", got)
	}
}
