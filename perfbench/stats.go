package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: the tail is the highest percentile with at least this many
// samples beyond it.
const minBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 80, 75}

// tailPercentile returns the highest percentile of tailLadder that
// leaves at least minBeyond of n samples beyond it, and false when n is
// too small for any of them.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// quantile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

// dist is a set of latency samples in milliseconds.
type dist []float64

func (d *dist) add(x time.Duration) { *d = append(*d, float64(x)/float64(time.Millisecond)) }

func (d dist) sorted() []float64 {
	s := append([]float64(nil), d...)
	sort.Float64s(s)
	return s
}

// p returns the percentile p (0..100) of the samples.
func (d dist) p(p float64) float64 { return quantile(d.sorted(), p/100) }

func (d dist) median() float64 { return d.p(50) }

// median of arbitrary values (used for repeated set-up timings).
func median(xs []float64) float64 { return dist(xs).median() }
