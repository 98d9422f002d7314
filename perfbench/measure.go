package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a
// p95 needs at least 200 samples, a p90 at least 100.
const minTail = 10

// quantile returns the nearest-rank q-quantile of xs. It fails when
// fewer than minTail samples lie beyond the rank, so a tail figure is
// never read off a handful of points.
func quantile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", 100*q)
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples: %d beyond it, need %d",
			100*q, n, n-rank, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// windowedQuantile returns the median, over groups of samples, of each
// group's q-quantile; every group must hold enough samples for it. The
// groups are consecutive time windows of a run, so a stall that delays
// everything in one window moves that window's figure, not the result.
func windowedQuantile(groups [][]float64, q float64) (float64, error) {
	per := make([]float64, 0, len(groups))
	for i, g := range groups {
		v, err := quantile(g, q)
		if err != nil {
			return 0, fmt.Errorf("window %d: %w", i, err)
		}
		per = append(per, v)
	}
	return median(per), nil
}

// median is the middle of xs (mean of the two middle values for an even
// count), 0 for no samples. It carries no tail requirement: it summarizes
// a handful of repetitions.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// weightedMedian returns the value at which the cumulative weight first
// reaches half the total. Used to merge per-record p50s, weighted by
// their task counts.
func weightedMedian(vals, weights []float64) float64 {
	type vw struct{ v, w float64 }
	s := make([]vw, 0, len(vals))
	total := 0.0
	for i, v := range vals {
		if weights[i] > 0 {
			s = append(s, vw{v, weights[i]})
			total += weights[i]
		}
	}
	if total == 0 {
		return 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i].v < s[j].v })
	acc := 0.0
	for _, x := range s {
		acc += x.w
		if acc >= total/2 {
			return x.v
		}
	}
	return s[len(s)-1].v
}

// ms and us convert a duration to fractional milli/microseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// jobOutcome is the client's view of one submission.
type jobOutcome struct {
	Due       time.Time // when the client decided to submit
	Submitted time.Time // when the submission actually started
	Terminal  time.Time // when the terminal SSE frame arrived (zero: none)
	Refused   bool      // admission said no (429/503/400)
	OK        bool      // reached "done" and its output checked correct
}

// latency runs from the due time, not the submission time, so a stalled
// client charges its own delay to the request. The bool is false for a
// job that never completed correctly.
func (o jobOutcome) latency() (time.Duration, bool) {
	if o.Refused || !o.OK || o.Terminal.IsZero() {
		return 0, false
	}
	return o.Terminal.Sub(o.Due), true
}

// goodput is the rate of jobs that completed correctly within limit,
// over window. Refused and failed jobs never count.
func goodput(outs []jobOutcome, limit, window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	n := 0
	for _, o := range outs {
		if l, ok := o.latency(); ok && l <= limit {
			n++
		}
	}
	return float64(n) / window.Seconds()
}

// histQuantile returns the upper bound of the bucket holding the q-th
// value of the difference b−a of two cumulative runtime/metrics
// histograms with the same buckets (0 when the difference is empty).
func histQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	diff := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		d := b.Counts[i]
		if a != nil && i < len(a.Counts) {
			d -= a.Counts[i]
		}
		diff[i] = d
		total += d
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range diff {
		seen += c
		if seen >= target {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.Buckets[i]
			}
			return hi
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}
