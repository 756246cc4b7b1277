package main

import (
	"math"
	"sort"
	"time"
)

// tailPct returns the highest whole percentile, at most 99, that leaves at
// least ten of n samples above it under the nearest-rank definition, and
// false when n < 11 leaves no such percentile.
func tailPct(n int) (int, bool) {
	if n < 11 {
		return 0, false
	}
	return min(99, 100*(n-10)/n), true
}

// percentile returns the nearest-rank p-th percentile of xs, sorting xs in
// place; 0 for an empty slice.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := (p*len(xs) + 99) / 100
	if k < 1 {
		k = 1
	}
	return xs[k-1]
}

// median returns the median of xs (mean of the middle pair for even
// counts), sorting xs in place; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// latency summarises a sample of durations: the median and the tail
// percentile chosen by tailPct, in milliseconds, with the sample count.
type latency struct {
	n       int
	p50     float64
	mean    float64 // over finite samples
	tail    float64
	tailPct int
}

// summarize computes the latency summary; failed operations enter xs as
// +Inf so they count as missing any latency limit. With fewer than 11
// samples the tail is the maximum.
func summarize(xs []float64) latency {
	l := latency{n: len(xs)}
	if l.n == 0 {
		return l
	}
	l.p50 = median(xs)
	var sum float64
	var finite int
	for _, x := range xs {
		if !math.IsInf(x, 0) {
			sum += x
			finite++
		}
	}
	if finite > 0 {
		l.mean = sum / float64(finite)
	}
	if p, ok := tailPct(l.n); ok {
		l.tailPct, l.tail = p, percentile(xs, p)
	} else {
		l.tailPct, l.tail = 100, xs[l.n-1]
	}
	return l
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perSecond returns n per second of d, or 0 when nothing was timed (every
// operation failed), so the result line stays encodable.
func perSecond(n float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return n / d.Seconds()
}

// histTail returns the upper bound, in milliseconds, of the log2 bucket
// holding the tail percentile of an obs histogram given as bucket bounds
// (seconds) and counts.
func histTail(les []float64, counts []uint64) float64 {
	var n uint64
	for _, c := range counts {
		n += c
	}
	p, ok := tailPct(int(n))
	if !ok {
		p = 100
	}
	want := (uint64(p)*n + 99) / 100
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= want && c > 0 {
			return les[i] * 1e3
		}
	}
	return 0
}
