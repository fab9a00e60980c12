package main

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// arrival is one request of an open-loop schedule: when it is due, as an
// offset from the phase start, and which artifact it asks for.
type arrival struct {
	Due time.Duration
	Exp string
}

// schedule lays n arrivals out at a constant rate (per second), as a
// constant-throughput load generator does. Names come in consecutive blocks
// that are each a seeded permutation of names, so the mix is uniform and
// every stretch of len(names) requests asks for each artifact once: seeds
// change the order, never the mix.
func schedule(rng *rand.Rand, rate float64, n int, names []string) []arrival {
	out := make([]arrival, n)
	var block []string
	for i := range out {
		if len(block) == 0 {
			block = append(block, names...)
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		out[i] = arrival{Due: time.Duration(float64(i) / rate * float64(time.Second)), Exp: block[0]}
		block = block[1:]
	}
	return out
}

// sample is one request's timeline as offsets from its phase start: due,
// handed to the connection queue by the generator (Sent), picked up by a
// connection (Started), and answered (Done).
type sample struct {
	Exp                      string
	Due, Sent, Started, Done time.Duration
	OK                       bool
	Status                   int
	Err, FailClass           string
}

// LatencyMS is the request's latency from its due time: a stall anywhere —
// in the server, on a busy connection, or in the generator itself — counts
// against every request that was due during it.
func (s sample) LatencyMS() float64 { return ms(s.Done - s.Due) }

// LateMS is how late the generator handed the request over.
func (s sample) LateMS() float64 { return ms(s.Sent - s.Due) }

// QueueMS is how long the request waited for a free connection.
func (s sample) QueueMS() float64 { return ms(s.Started - s.Sent) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// outcome is what one request returned.
type outcome struct {
	OK        bool
	Status    int
	Err       string
	FailClass string
}

// openLoop sends the schedule on time, regardless of how fast answers come
// back, over conns connections: a due request waits for a free connection
// instead of delaying the requests behind it. do performs request i; it
// must not block forever, and openLoop returns once every request has been
// answered, with the instant the samples' offsets count from.
func openLoop(ctx context.Context, sched []arrival, conns int, do func(ctx context.Context, i int, a arrival) outcome) ([]sample, time.Time) {
	samples := make([]sample, len(sched))
	due := make(chan int, len(sched)) // sized to the number of sends: the generator never blocks
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				samples[i].Started = time.Since(start)
				o := do(ctx, i, sched[i])
				samples[i].Done = time.Since(start)
				samples[i].OK, samples[i].Status, samples[i].Err, samples[i].FailClass = o.OK, o.Status, o.Err, o.FailClass
			}
		}()
	}
	for i, a := range sched {
		samples[i].Exp, samples[i].Due = a.Exp, a.Due
		if d := a.Due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		samples[i].Sent = time.Since(start)
		due <- i
	}
	close(due)
	wg.Wait()
	return samples, start
}

// closedLoop keeps conns connections busy back to back with the schedule's
// requests, ignoring due times, and starts no request once d has passed. It
// returns the answered requests and the time until the last answer.
func closedLoop(ctx context.Context, sched []arrival, conns int, d time.Duration, do func(ctx context.Context, i int, a arrival) outcome) ([]sample, time.Duration) {
	samples := make([]sample, len(sched))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) || time.Since(start) >= d || ctx.Err() != nil {
					return
				}
				s := &samples[i]
				s.Exp = sched[i].Exp
				s.Started = time.Since(start)
				s.Due, s.Sent = s.Started, s.Started
				o := do(ctx, i, sched[i])
				s.Done = time.Since(start)
				s.OK, s.Status, s.Err, s.FailClass = o.OK, o.Status, o.Err, o.FailClass
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	n := min(int(next.Load())-conns, len(sched))
	return samples[:n], elapsed
}

// phaseStats summarizes one open-loop phase.
type phaseStats struct {
	Rate      float64
	N, Failed int
	LatMS     []float64
	Wall      time.Duration // first due time to last answer
	Goodput   float64       // correct answers within the latency limit, per offered second
	LateP99MS float64
	QueueMean float64
	Verdict   rungVerdict
}

func summarize(rate float64, samples []sample, limitMS float64) phaseStats {
	ps := phaseStats{Rate: rate, N: len(samples)}
	var late, queue []float64
	var good int
	var last time.Duration
	for _, s := range samples {
		if !s.OK {
			ps.Failed++
		} else if s.LatencyMS() <= limitMS {
			good++
		}
		ps.LatMS = append(ps.LatMS, s.LatencyMS())
		late = append(late, s.LateMS())
		queue = append(queue, s.QueueMS())
		last = max(last, s.Done)
	}
	if len(samples) == 0 {
		return ps
	}
	ps.Wall = last - samples[0].Due
	ps.Goodput = float64(good) * rate / float64(len(samples))
	ps.LateP99MS = nearestRank(late, 99)
	ps.QueueMean = mean(queue)
	ps.Verdict = rungVerdict{LatMS: ps.LatMS, Failed: ps.Failed, DrainMS: ms(last - samples[len(samples)-1].Due)}
	return ps
}
