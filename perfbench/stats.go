package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// samples and how many samples lie beyond it. It does not reorder samples.
func percentile(samples []float64, p float64) (value float64, beyond int) {
	if len(samples) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s) - rank
}

// tailPercentile is percentile with the reporting rule: at least minTail
// samples must lie beyond p, or the percentile is not reportable.
func tailPercentile(samples []float64, p float64) (value float64, beyond int, err error) {
	v, beyond := percentile(samples, p)
	if beyond < minTail {
		return 0, beyond, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, len(samples), beyond, minTail)
	}
	return v, beyond, nil
}

func median(samples []float64) float64 {
	v, _ := percentile(samples, 50)
	return v
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range samples {
		s += x
	}
	return s / float64(len(samples))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
