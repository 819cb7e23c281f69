package main

import (
	"fmt"
	"sort"
)

// tailPoints are the candidate tail percentiles in parts per 10000, from
// the median up. A timing is reported at its median and at the highest of
// these that still has at least minBeyond samples above it.
var tailPoints = []int{5000, 9000, 9900, 9990, 9999}

const minBeyond = 10

// tailPercentile returns the highest candidate percentile (parts per
// 10000) with at least minBeyond of n samples beyond it, or 0 when even
// the median has fewer. Integer arithmetic keeps 1000 samples at p99
// exactly on the boundary.
func tailPercentile(n int) int {
	best := 0
	for _, pp := range tailPoints {
		if n*(10000-pp) >= minBeyond*10000 {
			best = pp
		}
	}
	return best
}

// percentileLabel names a percentile in parts per 10000: 9900 -> "p99",
// 9990 -> "p99.9".
func percentileLabel(pp int) string {
	if pp%100 == 0 {
		return fmt.Sprintf("p%d", pp/100)
	}
	s := fmt.Sprintf("p%d.%02d", pp/100, pp%100)
	if s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	return s
}

// nearestRank returns the pp-per-10000 percentile of sorted samples by the
// nearest-rank rule, so the value is always one that was observed.
func nearestRank(sorted []int64, pp int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (len(sorted)*pp + 9999) / 10000
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// quartiles returns the first quartile, median and third quartile of xs
// by the same rule as Python's statistics.quantiles(xs, n=4) (the
// exclusive method), so in-run spreads read like the cross-run ones.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	ld := len(d)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
