package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"binetrees/internal/harness"
	"binetrees/internal/obs"
	"binetrees/internal/pool"
)

// Committed sha256 digests of the batch outputs, taken from the binebench
// CLI at the commit that defined this benchmark. A pass whose output
// differs is a failure, whatever its speed.
const (
	quickAllDigest = "d214149548066fb440237b6f1e2df58e5257d30d945cc8c11066e7e5f45bedee"
	fullLUMIDigest = "338163eab9ca60e0a97646a66bf3db6b5ddac12a6ea9349e5b6cb0e4409f605c"
)

// batchWorkload is one `binebench -experiment all` configuration, run cold:
// the in-process trace cache is dropped before every pass and no disk store
// is set, so every pass compiles, synthesizes, evaluates and renders.
type batchWorkload struct {
	opts   harness.Options
	digest string
}

var batchWorkloads = map[string]batchWorkload{
	"quick-cold":      {harness.Options{Quick: true}, quickAllDigest},
	"paper-lumi-cold": {harness.Options{Quick: false, Systems: []string{"lumi"}}, fullLUMIDigest},
}

// setupRounds is how many times a run repeats its set-up; setup_s is the
// median, so one slow start does not move it.
const setupRounds = 3

// batchRunner runs passes on one resident pool, as binebench does.
type batchRunner struct {
	runner   *pool.Runner
	res      *result
	attempts int
	failed   int
}

// pass runs one cold RunAllOn pass and checks its output digest. It returns
// when RunAllOn started and returned, so the timing excludes the cache reset
// and the digest check.
func (b *batchRunner) pass(ctx context.Context, opts harness.Options, digest string) (t0, t1 time.Time) {
	harness.ResetTraceCache()
	h := sha256.New()
	t0 = time.Now()
	err := harness.RunAllOn(ctx, h, b.runner, opts)
	t1 = time.Now()
	b.attempts++
	if err != nil {
		b.failed++
		b.res.note("pass failed: %v", err)
	} else if got := hex.EncodeToString(h.Sum(nil)); got != digest {
		b.failed++
		b.res.note("pass output sha256 %s, want %s", got, digest)
	}
	return t0, t1
}

// setup times the warm-up before the first timed pass: one quick pass, the
// first round counted from process start.
func (b *batchRunner) setup(ctx context.Context) float64 {
	var rounds []float64
	for r := 0; r < setupRounds; r++ {
		t0 := time.Now()
		if r == 0 {
			t0 = processStart
		}
		b.pass(ctx, harness.Options{Quick: true}, quickAllDigest)
		rounds = append(rounds, time.Since(t0).Seconds())
	}
	return median(rounds)
}

// more reports whether another pass fits: passes keep starting while the
// expected end of the next one is at most half a pass past the budget.
func more(elapsed time.Duration, seconds float64, walls []float64) bool {
	if len(walls) == 0 {
		return true
	}
	return elapsed.Seconds()+median(walls)/2 <= seconds
}

func runBatch(ctx context.Context, w batchWorkload, seconds float64, tr *tracer, res *result) {
	b := &batchRunner{runner: pool.NewRunner(0), res: res}
	defer b.runner.Close()
	res.set("setup_s", b.setup(ctx))
	if tr != nil {
		tracedBatch(ctx, b, w, seconds, tr, res)
	} else {
		var walls, cpus, allocs []float64
		start := time.Now()
		for more(time.Since(start), seconds, walls) {
			m0, c0 := readMem(), cpuTime()
			t0, t1 := b.pass(ctx, w.opts, w.digest)
			c1, m1 := cpuTime(), readMem()
			walls = append(walls, t1.Sub(t0).Seconds())
			cpus = append(cpus, (c1 - c0).Seconds())
			allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		}
		elapsed := time.Since(start)
		res.set("op_ms.p50", median(walls)*1000)
		res.set("cpu_ms_per_op", median(cpus)*1000)
		res.set("alloc_mib_per_op", median(allocs))
		res.set("throughput_per_s", float64(len(walls))/elapsed.Seconds())
		res.line("pass_s.p50", median(walls), "s", fmt.Sprintf("%d passes", len(walls)))
		res.tail("pass_s.tail", walls, "s")
		res.line("cpu_s_per_pass", median(cpus), "s", "user+sys, median")
		res.line("alloc_mib_per_pass", median(allocs), "MiB", "TotalAlloc delta, median")
		res.set("peak_rss_mib", peakRSSMiB())
	}
	res.attempted, res.failed = b.attempts, b.failed
	res.line("fail_frac", float64(b.failed)/float64(b.attempts), "ratio", fmt.Sprintf("%d of %d passes", b.failed, b.attempts))
}

// tracedBatch alternates untraced and traced passes. Per-layer numbers come
// from the traced ones only: the benchmark's spans around RunAllOn, the
// compile/execute/render spans of an obs.Trace on its context, and
// before/after deltas of the program's exact counters.
func tracedBatch(ctx context.Context, b *batchRunner, w batchWorkload, seconds float64, tr *tracer, res *result) {
	var plain, traced, walls []float64
	l := newLayers()
	start := time.Now()
	for i := 0; len(plain) == 0 || len(traced) == 0 || more(time.Since(start), seconds, walls); i++ {
		if i%2 == 0 {
			t0, t1 := b.pass(ctx, w.opts, w.digest)
			plain, walls = append(plain, t1.Sub(t0).Seconds()), append(walls, t1.Sub(t0).Seconds())
			continue
		}
		tag := fmt.Sprintf("pass-%d", i)
		c0, rs0, m0 := readCounters(), b.runner.Stats(), readMem()
		ot := obs.NewTrace(tag, "all")
		t0, t1 := b.pass(obs.WithTrace(ctx, ot), w.opts, w.digest)
		ot.Finish()
		c1, rs1, m1 := readCounters(), b.runner.Stats(), readMem()
		callID := tr.add("harness.RunAllOn", tag, -1, t0, t1)
		tr.importObs(callID, tag, ot.Summary())
		traced, walls = append(traced, t1.Sub(t0).Seconds()), append(walls, t1.Sub(t0).Seconds())

		l.ops++
		l.add("harness.compile_s", tr.childTotal(callID, obs.StageCompile).Seconds())
		l.add("harness.execute_s", tr.childTotal(callID, obs.StageExecute).Seconds())
		l.add("harness.render_s", tr.childTotal(callID, obs.StageRender).Seconds())
		l.add("harness.self_s", tr.self(callID).Seconds())
		l.add("harness.cells", float64(rs1.JobsDone-rs0.JobsDone))
		l.add("pool.busy_s", rs1.BusySeconds-rs0.BusySeconds)
		l.add("pool.wait_s", rs1.WaitSeconds-rs0.WaitSeconds)
		l.pipeline(c0, c1)
		l.runtime(m0, m1)
		l.set("harness.resident_trace_mib", float64(harness.TraceCacheStats().CachedBytes)/(1<<20))
	}
	l.set("pool.util", l.sum["pool.busy_s"]/(float64(b.runner.Workers())*l.sum["harness.execute_s"]))
	l.set("trace.overhead_frac", median(traced)/median(plain)-1)
	l.finish(res)
	res.set("peak_rss_mib", peakRSSMiB())
	res.line("pass_s.p50.untraced", median(plain), "s", fmt.Sprintf("%d passes", len(plain)))
	res.line("pass_s.p50.traced", median(traced), "s", fmt.Sprintf("%d passes", len(traced)))
	accounted := (l.sum["harness.compile_s"] + l.sum["harness.execute_s"] + l.sum["harness.render_s"]) / sum(traced)
	res.line("harness.accounted_frac", accounted, "ratio", "compile+execute+render over RunAllOn wall")
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
