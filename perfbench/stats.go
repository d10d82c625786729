package main

import (
	"math"
	"sort"
)

// tailCandidates are the percentiles a distribution may report as its
// tail, highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// supportedTail returns the highest candidate percentile that has at
// least ten samples beyond it among n samples, and false when even the
// median has fewer.
func supportedTail(n int) (float64, bool) {
	for _, p := range tailCandidates {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank p-th percentile of sorted, or 0
// when it is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

// summary is a sorted sample set.
type summary []float64

func summarize(xs []float64) summary {
	s := append(summary(nil), xs...)
	sort.Float64s(s)
	return s
}

func (s summary) p(q float64) float64 { return percentile(s, q) }

func median(xs []float64) float64 { return summarize(xs).p(50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
