package main

import (
	"math"
	"sort"
	"time"
)

// median returns the median of xs (the mean of the two middle values for
// an even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nearestRank returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule: the smallest sample with at least p% of the samples at
// or below it. It is always an observed value.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rankOf(len(s), p)-1]
}

// rankOf is the 1-based nearest rank of percentile p among n samples. The
// tolerance keeps decimal percentiles such as 99.9, which binary floating
// point cannot hold exactly, from rounding up a whole rank.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// minBeyond is how many samples must rank above a reported tail percentile.
const minBeyond = 10

// tail is a tail-latency statistic: the percentile reported, its value, and
// how many samples rank above it.
type tail struct {
	P      float64
	Value  float64
	Beyond int
	N      int
}

// tailOf returns the highest candidate percentile with at least minBeyond
// samples ranked above it. ok is false when even the lowest candidate has
// too few, and the tail is then omitted rather than estimated.
func tailOf(xs []float64) (t tail, ok bool) {
	n := len(xs)
	for _, p := range tailPercentiles {
		if beyond := n - rankOf(n, p); beyond >= minBeyond {
			return tail{P: p, Value: nearestRank(xs, p), Beyond: beyond, N: n}, true
		}
	}
	return tail{N: n}, false
}

// interval is a span of time on a common clock.
type interval struct{ Start, End time.Duration }

// selfTime is a span's duration minus the part of it that its children
// cover. Children may overlap each other (parallel work) and may stick out
// of the parent; only their union inside the parent is subtracted.
func selfTime(parent interval, children []interval) time.Duration {
	var clipped []interval
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start < clipped[j].Start })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.Start <= cur.End:
			cur.End = max(cur.End, c.End)
		default:
			covered += cur.End - cur.Start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.End - cur.Start
	}
	return parent.End - parent.Start - covered
}

// rungOutcome is the result of one capacity-ladder rung.
type rungOutcome int

const (
	rungPass rungOutcome = iota
	rungMiss
	// rungNoTime means the run's ladder budget ran out before the rung
	// could run; the rung was not measured.
	rungNoTime
)

// ladderSearch walks a fixed ladder of rungs lo..hi, starting at rung start.
// When the start rung passes it climbs until the first miss; when it misses
// it descends until the first pass. It returns the highest rung that passed,
// whether any did, and whether the walk stopped because the budget ran out
// or the ladder ended while still passing (the result is then a bound, not
// a measurement).
func ladderSearch(lo, start, hi int, try func(k int) rungOutcome) (best int, found, capped bool) {
	switch try(start) {
	case rungNoTime:
		return 0, false, true
	case rungPass:
		best = start
		for k := start + 1; k <= hi; k++ {
			switch try(k) {
			case rungPass:
				best = k
			case rungMiss:
				return best, true, false
			case rungNoTime:
				return best, true, true
			}
		}
		return best, true, true
	}
	for k := start - 1; k >= lo; k-- {
		switch try(k) {
		case rungPass:
			return k, true, false
		case rungNoTime:
			return 0, false, true
		}
	}
	return 0, false, true
}

// rungVerdict holds what one rung of offered load produced: latencies from
// each request's due time, failures, and how long after the rung's last due
// time its last answer came.
type rungVerdict struct {
	LatMS   []float64
	Failed  int
	DrainMS float64
}

// passes applies the serve-warm latency limit: p95 latency from due time
// within limitMS, no failures, and no growing backlog — everything due in
// the rung answered within limitMS of its last due time, so no queue is
// left over for the next rung.
func (v rungVerdict) passes(limitMS float64) bool {
	if v.Failed > 0 || len(v.LatMS) == 0 {
		return false
	}
	return nearestRank(v.LatMS, 95) <= limitMS && v.DrainMS <= limitMS
}
