package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: with fewer, the figure is one or two outliers.
const minBeyond = 10

// tailLevels are the percentiles considered for a tail figure, highest
// first.
var tailLevels = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// dist is a sorted sample set.
type dist []float64

func newDist(v []float64) dist {
	d := append(dist(nil), v...)
	sort.Float64s(d)
	return d
}

// rank is the nearest-rank index of percentile q, and how many samples
// lie beyond it.
func (d dist) rank(q float64) (idx, beyond int) {
	idx = int(math.Ceil(q/100*float64(len(d)))) - 1
	if idx < 0 {
		idx = 0
	}
	return idx, len(d) - 1 - idx
}

// supported is the highest of tailLevels, capped at want, that has at
// least minBeyond samples beyond it; 0 when even the median has not.
func (d dist) supported(want float64) float64 {
	for _, q := range tailLevels {
		if q > want {
			continue
		}
		if _, beyond := d.rank(q); beyond >= minBeyond {
			return q
		}
	}
	return 0
}

// pct is percentile q by nearest rank (0 for an empty set).
func (d dist) pct(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	idx, _ := d.rank(q)
	return d[idx]
}

// tail reports the percentile want when the sample supports it, else the
// highest one it does support, with that percentile and the count beyond.
// A set too small to support even the median reports its maximum.
func (d dist) tail(want float64) (value, q float64, beyond int) {
	if len(d) == 0 {
		return 0, 0, 0
	}
	q = d.supported(want)
	if q == 0 {
		return d[len(d)-1], 100, 0
	}
	idx, beyond := d.rank(q)
	return d[idx], q, beyond
}

func (d dist) mean() float64 {
	if len(d) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range d {
		s += v
	}
	return s / float64(len(d))
}

// describe renders "p50=… pQ=… (n=…, k beyond pQ)" for the report lines.
func (d dist) describe(unit string, want float64) string {
	v, q, beyond := d.tail(want)
	top, tq, tb := d.tail(100)
	return fmt.Sprintf("p50=%.4g%s p%g=%.4g%s (n=%d, %d beyond) highest supported p%g=%.4g%s (%d beyond)",
		d.pct(50), unit, q, v, unit, len(d), beyond, tq, top, unit, tb)
}

// median of a small set (setup repeats, replay repeats).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	d := newDist(v)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// slices is how many equal time slices the measured window is cut into.
// The steadied metrics are figures over slices rather than over the whole
// window, so that a few disturbed moments of a shared host do not move them.
const slices = 240

// sliceOf is the slice of window that offset at falls in; slices or more
// for offsets past the window.
func sliceOf(at, window time.Duration) int {
	if at < 0 {
		return 0
	}
	return int(int64(at) * slices / int64(window))
}

// quietPct is the share of slices, in percent, that the least-disturbed
// figures describe.
const quietPct = 10

// leastDisturbed is the figure of the least-disturbed tenth of the
// slices: the 90th percentile of per-slice values where higher is better
// (a rate), the 10th where lower is better (a latency, a cost). Other
// tenants of a shared host slow some slices of a window and never speed
// one up, so the best slices move with the program and hardly with them.
func leastDisturbed(v []float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		return newDist(v).pct(100 - quietPct)
	}
	return newDist(v).pct(quietPct)
}

// sample is one value observed at an offset into the window.
type sample struct {
	at time.Duration
	v  float64
}

// slicedMean is the mean over time slices of stat (see perSlice). Tail
// percentiles use it: a slice's p99 swings between the host's quiet and
// disturbed moments, and the mean moves smoothly with how often each
// occurs.
func slicedMean(samples []sample, window time.Duration, minPer int, stat func(dist) float64) float64 {
	return newDist(perSlice(samples, window, minPer, stat)).mean()
}

// slicedQuiet is the least-disturbed figure (lower is better) over time
// slices of stat (see perSlice).
func slicedQuiet(samples []sample, window time.Duration, minPer int, stat func(dist) float64) float64 {
	return leastDisturbed(perSlice(samples, window, minPer, stat), false)
}

// perSlice cuts the window into equal time slices and applies stat to
// each slice's values. It uses as many slices (at most slices) as leave
// minPer samples in each on average, and the whole window when there are
// fewer.
func perSlice(samples []sample, window time.Duration, minPer int, stat func(dist) float64) []float64 {
	k := min(slices, len(samples)/max(minPer, 1))
	if k < 1 {
		k = 1
	}
	parts := make([][]float64, k)
	for _, s := range samples {
		i := min(int(int64(s.at)*int64(k)/int64(window)), k-1)
		parts[max(i, 0)] = append(parts[max(i, 0)], s.v)
	}
	vals := make([]float64, 0, k)
	for _, part := range parts {
		if len(part) > 0 {
			vals = append(vals, stat(newDist(part)))
		}
	}
	return vals
}

// p99 is the 99th percentile, or the highest one the slice supports.
func p99(d dist) float64 {
	v, _, _ := d.tail(99)
	return v
}

func p50(d dist) float64 { return d.pct(50) }
