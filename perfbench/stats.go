package main

import (
	"math"
	"sort"
	"time"
)

// samples is one distribution of measurements in arrival order;
// latencies are in microseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e3) }

func (s *samples) addValue(v float64) { *s = append(*s, v) }

// quantile returns the q-quantile (nearest rank on the sorted sample);
// NaN when empty.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c) {
		i = len(c) - 1
	}
	return c[i]
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

// windows is how many consecutive slices a run's samples are cut into;
// reported statistics are medians over the slices, so a burst of
// machine noise in one part of a run moves one slice, not the result.
const windows = 10

// windowed returns the median over consecutive slices of the
// q-quantile of each slice, in arrival order.
func (s samples) windowed(q float64) float64 {
	if len(s) < windows {
		return s.quantile(q)
	}
	per := make([]float64, windows)
	for w := range per {
		per[w] = s[w*len(s)/windows : (w+1)*len(s)/windows].quantile(q)
	}
	return median(per)
}

// windowedRate turns event arrival times (seconds, ascending) into a
// rate: the reciprocal of the median gap between events, taken as the
// median over consecutive slices.
func windowedRate(at []float64) float64 {
	gaps := make(samples, 0, len(at))
	for i := 1; i < len(at); i++ {
		gaps = append(gaps, at[i]-at[i-1])
	}
	return 1 / gaps.windowed(0.5)
}

// median of a small float set.
func median(v []float64) float64 { return samples(v).quantile(0.5) }
