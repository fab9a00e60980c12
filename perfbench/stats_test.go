package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: the functions must sort
	}
	return xs
}

func TestMedianAndNearestRank(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := nearestRank(seq(100), 95); got != 95 {
		t.Errorf("p95 of 1..100 = %v, want 95", got)
	}
	if got := nearestRank(seq(20), 95); got != 19 {
		t.Errorf("p95 of 1..20 = %v, want 19", got)
	}
	if got := nearestRank([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
}

// TestTailRule pins the tail rule: the highest percentile with at least ten
// samples ranked above it, and no tail at all below that.
func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		ok     bool
		p      float64
		beyond int
	}{
		{n: 10, ok: false},
		{n: 39, ok: false},
		{n: 40, ok: true, p: 75, beyond: 10},
		{n: 99, ok: true, p: 75, beyond: 24},
		{n: 100, ok: true, p: 90, beyond: 10},
		{n: 199, ok: true, p: 90, beyond: 19},
		{n: 200, ok: true, p: 95, beyond: 10},
		{n: 999, ok: true, p: 95, beyond: 49},
		{n: 1000, ok: true, p: 99, beyond: 10},
		{n: 10000, ok: true, p: 99.9, beyond: 10},
	} {
		got, ok := tailOf(seq(tc.n))
		if ok != tc.ok {
			t.Errorf("n=%d: ok=%v, want %v", tc.n, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if got.P != tc.p || got.Beyond != tc.beyond || got.N != tc.n {
			t.Errorf("n=%d: p%v with %d beyond, want p%v with %d beyond", tc.n, got.P, got.Beyond, tc.p, tc.beyond)
		}
		// With samples 1..n, the value is the rank, and exactly Beyond
		// samples exceed it.
		if want := float64(tc.n - tc.beyond); got.Value != want {
			t.Errorf("n=%d: value %v, want %v", tc.n, got.Value, want)
		}
	}
}

// TestLadderSearch drives the capacity walk with synthetic rung outcomes.
func TestLadderSearch(t *testing.T) {
	upTo := func(limit int) func(int) rungOutcome {
		return func(k int) rungOutcome {
			if k <= limit {
				return rungPass
			}
			return rungMiss
		}
	}
	for _, tc := range []struct {
		name          string
		lo, start, hi int
		try           func(int) rungOutcome
		best          int
		found, capped bool
		tried         []int
	}{
		{"climb to first miss", -3, 5, 20, upTo(7), 7, true, false, []int{5, 6, 7, 8}},
		{"start rung misses: descend to first pass", -3, 5, 20, upTo(2), 2, true, false, []int{5, 4, 3, 2}},
		{"start rung is the last pass", -3, 5, 20, upTo(5), 5, true, false, []int{5, 6}},
		{"nothing passes", -3, 5, 20, upTo(-10), 0, false, true, []int{5, 4, 3, 2, 1, 0, -1, -2, -3}},
		{"ladder top reached while passing", -3, 5, 8, upTo(100), 8, true, true, []int{5, 6, 7, 8}},
		{"stops at the first miss even if a higher rung would pass", -3, 5, 20, func(k int) rungOutcome {
			if k == 6 {
				return rungMiss
			}
			return rungPass
		}, 5, true, false, []int{5, 6}},
		{"budget runs out while climbing", -3, 5, 20, func(k int) rungOutcome {
			if k >= 7 {
				return rungNoTime
			}
			return rungPass
		}, 6, true, true, []int{5, 6, 7}},
		{"budget runs out while descending", -3, 5, 20, func(k int) rungOutcome {
			if k <= 3 {
				return rungNoTime
			}
			return rungMiss
		}, 0, false, true, []int{5, 4, 3}},
	} {
		var tried []int
		best, found, capped := ladderSearch(tc.lo, tc.start, tc.hi, func(k int) rungOutcome {
			tried = append(tried, k)
			return tc.try(k)
		})
		if best != tc.best || found != tc.found || capped != tc.capped || !reflect.DeepEqual(tried, tc.tried) {
			t.Errorf("%s: best=%d found=%v capped=%v tried=%v, want best=%d found=%v capped=%v tried=%v",
				tc.name, best, found, capped, tried, tc.best, tc.found, tc.capped, tc.tried)
		}
	}
}

func TestRungVerdict(t *testing.T) {
	fast := seq(100) // p95 = 95 ms
	for _, tc := range []struct {
		name string
		v    rungVerdict
		want bool
	}{
		{"within limit", rungVerdict{LatMS: fast, DrainMS: 60}, true},
		{"p95 over limit", rungVerdict{LatMS: append(seq(94), 201, 202, 203, 204, 205, 206)}, false},
		{"a failure", rungVerdict{LatMS: fast, Failed: 1}, false},
		{"backlog left at the end", rungVerdict{LatMS: fast, DrainMS: 101}, false},
		{"no samples", rungVerdict{}, false},
	} {
		if got := tc.v.passes(100); got != tc.want {
			t.Errorf("%s: passes=%v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestDueTimeLatency checks that a stall is charged to every request due
// during it: with one connection held 60 ms by the first request, the next
// two wait for it, and their latency counts from when they were due, not
// from when they were sent.
func TestDueTimeLatency(t *testing.T) {
	sched := []arrival{{Due: 0, Exp: "a"}, {Due: 10 * time.Millisecond, Exp: "b"}, {Due: 20 * time.Millisecond, Exp: "c"}}
	samples, _ := openLoop(context.Background(), sched, 1, func(ctx context.Context, i int, a arrival) outcome {
		if i == 0 {
			time.Sleep(60 * time.Millisecond)
		}
		return outcome{OK: true}
	})
	for i, s := range samples {
		if s.Exp != sched[i].Exp || s.Due != sched[i].Due {
			t.Fatalf("sample %d is %q due %v, want %q due %v", i, s.Exp, s.Due, sched[i].Exp, sched[i].Due)
		}
		if s.Sent < s.Due || s.Started < s.Sent || s.Done < s.Started {
			t.Errorf("sample %d timeline out of order: %+v", i, s)
		}
	}
	// Request b was due at 10 ms and could start only after a finished at
	// 60 ms or later: at least 50 ms of latency, nearly all of it queueing.
	if lat := samples[1].LatencyMS(); lat < 50 {
		t.Errorf("b latency %.1f ms, want >= 50 (counted from due time)", lat)
	}
	if q := samples[1].QueueMS(); q < 40 {
		t.Errorf("b waited %.1f ms for the connection, want >= 40", q)
	}
	if lat := samples[2].LatencyMS(); lat < 40 {
		t.Errorf("c latency %.1f ms, want >= 40", lat)
	}
	// The generator itself kept to the schedule.
	for i, s := range samples {
		if late := s.LateMS(); late > 15 {
			t.Errorf("sample %d sent %.1f ms late", i, late)
		}
	}
	// c, due at 20 ms, is answered after a's 60 ms stall: the rung drains
	// at least 40 ms after its last due time.
	ps := summarize(100, samples, 55)
	if ps.Verdict.DrainMS < 40 || ps.Verdict.DrainMS != samples[2].LatencyMS() {
		t.Errorf("drain %.1f ms, want c's latency %.1f ms (>= 40)", ps.Verdict.DrainMS, samples[2].LatencyMS())
	}
	if ps.N != 3 || ps.Failed != 0 {
		t.Errorf("summary N=%d failed=%d, want 3 and 0", ps.N, ps.Failed)
	}
}

// TestClosedLoop checks the back-to-back phase: no request starts after the
// deadline, and the answered requests are exactly a prefix of the schedule.
func TestClosedLoop(t *testing.T) {
	sched := schedule(rand.New(rand.NewSource(1)), 1, 1000, []string{"a", "b"})
	samples, elapsed := closedLoop(context.Background(), sched, 2, 50*time.Millisecond, func(ctx context.Context, i int, a arrival) outcome {
		time.Sleep(5 * time.Millisecond)
		return outcome{OK: true}
	})
	if n := len(samples); n < 4 || n > 40 {
		t.Fatalf("%d requests answered in a 50 ms window at 5 ms each on 2 connections", n)
	}
	for i, s := range samples {
		if s.Exp != sched[i].Exp || !s.OK || s.Done <= s.Started {
			t.Fatalf("sample %d = %+v: not an answered request from the schedule's prefix", i, s)
		}
		if s.Started >= 50*time.Millisecond {
			t.Errorf("sample %d started at %v, after the deadline", i, s.Started)
		}
		if s.Done > elapsed {
			t.Errorf("sample %d answered at %v, after the reported elapsed %v", i, s.Done, elapsed)
		}
	}
}

// TestSelfTime subtracts the union of the children that lies inside the
// parent: overlapping children count once, parts outside do not count.
func TestSelfTime(t *testing.T) {
	iv := func(a, b int) interval { return interval{time.Duration(a), time.Duration(b)} }
	for _, tc := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"serial children", []interval{iv(0, 20), iv(20, 70), iv(70, 95)}, 5},
		{"overlapping children count once", []interval{iv(10, 30), iv(20, 40)}, 70},
		{"children outside the parent are clipped", []interval{iv(-5, 5), iv(90, 120), iv(200, 300)}, 85},
		{"mixed", []interval{iv(10, 30), iv(20, 40), iv(90, 120), iv(-5, 5), iv(15, 25)}, 55},
		{"child covers the parent", []interval{iv(-1, 101)}, 0},
	} {
		if got := selfTime(iv(0, 100), tc.children); got != tc.want {
			t.Errorf("%s: self = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestSchedule checks the seeded arrivals: reproducible, at the offered
// rate, and each block of len(names) a permutation.
func TestSchedule(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	a := schedule(rand.New(rand.NewSource(7)), 50, 4000, names)
	b := schedule(rand.New(rand.NewSource(7)), 50, 4000, names)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := schedule(rand.New(rand.NewSource(8)), 50, 4000, names); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i].Due < a[i-1].Due {
			t.Fatalf("arrival %d due before arrival %d", i, i-1)
		}
	}
	if got, want := a[len(a)-1].Due, 3999*20*time.Millisecond; got != want {
		t.Errorf("last arrival due at %v, want %v at 50/s", got, want)
	}
	for i := 0; i+len(names) <= len(a); i += len(names) {
		var block []string
		for _, x := range a[i : i+len(names)] {
			block = append(block, x.Exp)
		}
		sort.Strings(block)
		if !reflect.DeepEqual(block, names) {
			t.Fatalf("block at %d is %v, not a permutation of %v", i, block, names)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric catalogs and the
// repository's BENCHMARK.json in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, want %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v, want %v", spec.PerLayer, perLayer)
	}
}
