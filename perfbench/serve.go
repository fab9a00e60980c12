package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"binetrees/internal/harness"
	"binetrees/internal/obs"
	"binetrees/internal/service"
)

// serve-warm's load, frozen with the benchmark. The fixed rate is about a
// third of the capacity measured when the benchmark was defined (55–85 req/s
// on a 2 vCPU Xeon, loopback HTTP); the ladder above it finds the capacity.
// At half of capacity (35 req/s) a slow stretch of that shared host pushed
// the load past 60% of what it could serve, requests queued behind the 50 ms
// artifacts, and the median latency moved by 23–48% between runs. At 20 req/s
// requests seldom queue, and what spread remains follows the host's speed.
const (
	fixedRate      = 20.0  // requests per second, offered open loop
	latencyLimitMS = 200.0 // p95 limit from due time, for goodput and capacity
	// lateLimitMS bounds how late the generator may hand requests over (p99)
	// at the fixed rate before the run is invalid. Latency is timed from the
	// due time, so lateness is never hidden; but a generator this late is
	// starved of CPU by something other than the server, and the run says
	// more about the host than about the program.
	lateLimitMS = 50.0
	// The capacity ladder: rung k offers fixedRate × ladderStep^k, for
	// rungRequests requests. The walk starts at the highest rung at most
	// ladderStartShare of the closed-loop throughput measured just before,
	// so the budget goes to the rungs that decide the result whatever the
	// server's speed.
	ladderStep       = 1.07
	ladderStartShare = 0.85
	ladderLowest     = -20
	ladderTop        = 60
	rungRequests     = 150
	requestTimeout   = 30 * time.Second
)

// An untraced run alternates chunks of fixedChunk requests at the fixed
// rate with closedChunk of back-to-back requests, from start to end, and
// runs one ladder rung after each pair until the ladder is done. Spreading
// each measurement over the whole run averages out the host's slow and fast
// seconds, which on a shared 2 vCPU host move a 4-second window's median
// latency by 30%.
const (
	fixedChunk  = 64 // four of each artifact
	closedChunk = 800 * time.Millisecond
)

// quickDigests are the committed sha256 digests of each quick artifact, as
// the binebench CLI renders it and the service must serve it.
var quickDigests = map[string]string{
	"fig1":   "ddd017dde8785a1bccbbcb8551da7a134fd663e99fef9faa9f941a1f8a29882a",
	"eq2":    "b857b7ca349c03452f7bd71d86beb2e13968a7a12521f1e352d53931cc1b0d7d",
	"fig5":   "710ef911d9958d689e468a11f7f39c016d91b9610cf6cef585b246cf88cdf91c",
	"table3": "89c16a20ffaa455c8c323279c5632bfb8f9e1961cdfdf548c67e7f2f21c8162c",
	"fig9a":  "b7e0b62b0d406525e5deaf1194386ef21d2358500436d5001d3f2b1aa70f3cff",
	"fig9b":  "687897c7977d956ebc76c75374b4bed054df24d190ada4828651e02c9ac02519",
	"table4": "fc888207d34332f80e72e3778662d2723ce620c6ec6a8ff62e2e0d2795b5d830",
	"fig10a": "9c31db9818a6f2b6409a024499eaea5b6d2d0817654091e5b1e4fca4bc7ed6c1",
	"fig10b": "b339be930323b0c53e7a6b1a9aa93e39c6a599fe5aa3aef491b87529c035a9ea",
	"table5": "d09bd1106ba5daab84d038bb1ffed8deadc25940f528ef17bed571a59f8ed301",
	"fig11a": "f945c7bd80c0ebebcd08d8ba5233bd05f28ab88a5ac048325a9e173f1bca9131",
	"fig11b": "9c05998f01479caf9790c737d09eb6483850162328d3df3d0834c64eb288dd03",
	"fig14":  "d281b93c1e72203cea6a673425bcdc8ee6459338087bf7ee4c672cf176e1082e",
	"hier":   "1c48eb8be7302159e69a59eebee1d3b4cb977bfa335a8b45b3dbb38a68786322",
	"ppn":    "c00d1e1801a38efe02f67d0bee6c967450df009db7e6b5c8962268229b501841",
	"appD":   "9db41c9960c9d668f0d89cd7f5816c33ad0f3542b9657542e6740fcaf1b4cfa8",
}

// liveServer is an in-process service.Server behind a loopback listener.
type liveServer struct {
	srv    *service.Server
	hs     *http.Server
	url    string
	served chan error
}

func startServer(cfg service.Config) (*liveServer, error) {
	srv, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	l := &liveServer{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { l.served <- l.hs.Serve(ln) }()
	return l, nil
}

// close stops the listener, waits for Serve to return, then closes the
// service, which drains its flights and pool.
func (l *liveServer) close() {
	l.hs.Close()
	<-l.served
	l.srv.Close()
}

// tracedIDPrefix starts the X-Request-ID of every traced request.
const tracedIDPrefix = "perfbench-"

// accessSink collects the service's access log while on, and counts the
// lines of traced requests. The service writes each request's line once per
// Write, after the response body is sent, so a client can hold every answer
// before the last line arrives.
type accessSink struct {
	mu    sync.Mutex
	on    bool
	lines int
	buf   bytes.Buffer
}

func (a *accessSink) Write(p []byte) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.on {
		a.buf.Write(p)
		if bytes.Contains(p, []byte(`"request_id":"`+tracedIDPrefix)) {
			a.lines++
		}
	}
	return len(p), nil
}

func (a *accessSink) enable(on bool) {
	a.mu.Lock()
	a.on = on
	a.mu.Unlock()
}

// await waits up to a second for the sink to have collected n traced
// requests' lines, and reports whether it did.
func (a *accessSink) await(n int) bool {
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		a.mu.Lock()
		got := a.lines
		a.mu.Unlock()
		if got >= n || time.Now().After(deadline) {
			return got >= n
		}
	}
}

// accessLine is the part of a service access-log line the trace uses.
type accessLine struct {
	Time      time.Time         `json:"time"`
	RequestID string            `json:"request_id"`
	Role      string            `json:"role"`
	DurMS     float64           `json:"dur_ms"`
	Trace     *obs.TraceSummary `json:"trace"`
}

func (a *accessSink) entries() (map[string]accessLine, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := map[string]accessLine{}
	sc := bufio.NewScanner(bytes.NewReader(a.buf.Bytes()))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var e accessLine
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("access log: %w", err)
		}
		out[e.RequestID] = e
	}
	return out, sc.Err()
}

// serveRun drives one serve-warm run over loopback HTTP.
type serveRun struct {
	hc        *http.Client
	names     []string
	conns     int
	res       *result
	attempted int
	failed    int
}

// get fetches one artifact and checks status and body digest. A refusal
// (429), a server error, a transport error and a wrong body all fail.
func (s *serveRun) get(ctx context.Context, base, exp, reqID string) outcome {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/artifact/"+exp, nil)
	if err != nil {
		return outcome{Err: err.Error(), FailClass: "request"}
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return outcome{Err: err.Error(), FailClass: "transport"}
	}
	defer resp.Body.Close()
	h := sha256.New()
	if _, err := io.Copy(h, resp.Body); err != nil {
		return outcome{Status: resp.StatusCode, Err: err.Error(), FailClass: "transport"}
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return outcome{Status: resp.StatusCode, FailClass: "shed"}
	case resp.StatusCode >= 500:
		return outcome{Status: resp.StatusCode, FailClass: "5xx"}
	case resp.StatusCode != http.StatusOK:
		return outcome{Status: resp.StatusCode, FailClass: "status"}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != quickDigests[exp] {
		return outcome{Status: resp.StatusCode, Err: "sha256 " + got, FailClass: "digest"}
	}
	return outcome{OK: true, Status: resp.StatusCode}
}

// tally counts requests into the run's attempted and failed totals and
// notes the first failure of each class.
func (s *serveRun) tally(samples []sample) {
	seen := map[string]bool{}
	for _, smp := range samples {
		s.attempted++
		if smp.OK {
			continue
		}
		s.failed++
		if !seen[smp.FailClass] {
			seen[smp.FailClass] = true
			s.res.note("request %s failed (%s, status %d): %s", smp.Exp, smp.FailClass, smp.Status, trimmed(smp.Err))
		}
	}
}

// checkAll requests every artifact once, in order, on one connection.
func (s *serveRun) checkAll(ctx context.Context, base string) {
	var samples []sample
	for _, exp := range s.names {
		o := s.get(ctx, base, exp, "")
		samples = append(samples, sample{Exp: exp, OK: o.OK, Status: o.Status, Err: o.Err, FailClass: o.FailClass})
	}
	s.tally(samples)
}

// phase offers the schedule open loop and tallies the answers. reqIDs, when
// non-nil, tags request i with reqIDs[i].
func (s *serveRun) phase(ctx context.Context, base string, sched []arrival, reqIDs []string) ([]sample, time.Time) {
	samples, start := openLoop(ctx, sched, s.conns, func(ctx context.Context, i int, a arrival) outcome {
		id := ""
		if reqIDs != nil {
			id = reqIDs[i]
		}
		return s.get(ctx, base, a.Exp, id)
	})
	s.tally(samples)
	return samples, start
}

func waitReady(ctx context.Context, hc *http.Client, base string) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("server at %s not ready after 60s", base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// setupRound builds the warm server in a fresh store directory: a first
// server fills the store with every quick artifact's traces, then, with the
// in-process cache dropped, the measured server prewarms from that store and
// answers one request per artifact, loading the traces from disk. A traced
// run records a span around each of these calls, tagged with the round.
func (s *serveRun) setupRound(ctx context.Context, round int, dir string, sink *accessSink, tr *tracer) (*liveServer, counters, counters, error) {
	tag := fmt.Sprintf("setup-%d", round)
	harness.ResetTraceCache()
	t0 := time.Now()
	fill, err := startServer(service.Config{TraceDir: dir})
	if err != nil {
		return nil, nil, nil, err
	}
	s.checkAll(ctx, fill.url)
	fill.close()
	s.hc.CloseIdleConnections()
	harness.ResetTraceCache()
	t1 := time.Now()
	tr.add("setup.fill_store", tag, -1, t0, t1)
	c0 := readCounters()
	cfg := service.Config{TraceDir: dir}
	if sink != nil {
		cfg.AccessLog = sink
	}
	live, err := startServer(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	t2 := time.Now()
	tr.add("service.New", tag, -1, t1, t2)
	if err := waitReady(ctx, s.hc, live.url); err != nil {
		live.close()
		return nil, nil, nil, err
	}
	t3 := time.Now()
	tr.add("service.ready", tag, -1, t2, t3)
	s.checkAll(ctx, live.url)
	tr.add("setup.first_requests", tag, -1, t3, time.Now())
	return live, c0, readCounters(), nil
}

func runServe(ctx context.Context, seed int64, seconds float64, tr *tracer, res *result) error {
	base := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	storeRoot, err := os.MkdirTemp(base, "stores-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(storeRoot)
	conns := runtime.NumCPU()
	s := &serveRun{
		hc: &http.Client{Timeout: requestTimeout, Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}},
		names: harness.ExperimentNames(),
		conns: conns,
		res:   res,
	}
	defer s.hc.CloseIdleConnections()
	var sink *accessSink
	if tr != nil {
		sink = &accessSink{}
	}

	var live *liveServer
	defer func() {
		if live != nil {
			live.close()
		}
	}()
	var setups []float64
	var c0, c1 counters
	for r := 0; r < setupRounds; r++ {
		t0 := time.Now()
		if r == 0 {
			t0 = processStart
		}
		if live != nil {
			live.close()
			live = nil
			s.hc.CloseIdleConnections()
		}
		dir, err := os.MkdirTemp(storeRoot, "store-")
		if err != nil {
			return err
		}
		if live, c0, c1, err = s.setupRound(ctx, r, dir, sink, tr); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.set("setup_s", median(setups))
	res.line("serve.load", fixedRate, "req/s", fmt.Sprintf("open loop at a constant rate, uniform over %d quick artifacts, %d connections, p95 limit %.0f ms", len(s.names), conns, latencyLimitMS))

	rng := rand.New(rand.NewSource(seed))
	if tr != nil {
		err = s.traced(ctx, live, rng, seconds, tr, sink, c0, c1)
	} else {
		err = s.untraced(ctx, live, rng, seconds)
	}
	res.set("peak_rss_mib", peakRSSMiB())
	res.attempted, res.failed = s.attempted, s.failed
	res.line("fail_frac", float64(s.failed)/float64(max(s.attempted, 1)), "ratio", fmt.Sprintf("%d of %d requests (refused, 5xx, transport errors and wrong bodies)", s.failed, s.attempted))
	return err
}

// untraced measures latency at the fixed rate and throughput with the
// connections kept busy, in alternating chunks, and walks the capacity
// ladder between them.
func (s *serveRun) untraced(ctx context.Context, live *liveServer, rng *rand.Rand, seconds float64) error {
	res := s.res
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var fixed []sample
	var fixedCPU time.Duration
	var fixedAlloc uint64
	var closedN int
	var closedTime time.Duration
	var chunkTime time.Duration // longest chunk pair so far
	chunk := func() {
		t0 := time.Now()
		m0, cpu0 := readMem(), cpuTime()
		samples, _ := s.phase(ctx, live.url, schedule(rng, fixedRate, fixedChunk, s.names), nil)
		cpu1, m1 := cpuTime(), readMem()
		fixed = append(fixed, samples...)
		fixedCPU += cpu1 - cpu0
		fixedAlloc += m1.TotalAlloc - m0.TotalAlloc
		closed, elapsed := closedLoop(ctx, schedule(rng, 1, 1<<14, s.names), s.conns, closedChunk,
			func(ctx context.Context, i int, a arrival) outcome { return s.get(ctx, live.url, a.Exp, "") })
		s.tally(closed)
		closedN += len(closed)
		closedTime += elapsed
		chunkTime = max(chunkTime, time.Since(t0))
	}
	chunk()
	first := int(math.Floor(math.Log(ladderStartShare*float64(closedN)/closedTime.Seconds()/fixedRate) / math.Log(ladderStep)))
	first = min(max(first, ladderLowest), ladderTop)
	try := func(k int) rungOutcome {
		rate := fixedRate * math.Pow(ladderStep, float64(k))
		rungTime := time.Duration(rungRequests / rate * float64(time.Second))
		if time.Until(deadline) < rungTime+chunkTime || ctx.Err() != nil {
			return rungNoTime
		}
		samples, _ := s.phase(ctx, live.url, schedule(rng, rate, rungRequests, s.names), nil)
		st := summarize(rate, samples, latencyLimitMS)
		chunk()
		v := st.Verdict
		pass := v.passes(latencyLimitMS)
		res.note("rung %+d: %.1f req/s, %d requests, p95 %.1f ms, %d failed, drained %.1f ms after the last due time, late p99 %.1f ms: pass=%v",
			k, st.Rate, st.N, nearestRank(v.LatMS, 95), v.Failed, v.DrainMS, st.LateP99MS, pass)
		if pass {
			return rungPass
		}
		return rungMiss
	}
	best, found, capped := ladderSearch(ladderLowest, first, ladderTop, try)
	for time.Until(deadline) >= chunkTime && ctx.Err() == nil {
		chunk()
	}

	n := len(fixed)
	st := summarize(fixedRate, fixed, latencyLimitMS)
	throughput := float64(closedN) / closedTime.Seconds()
	res.set("op_ms.p50", median(st.LatMS))
	res.set("cpu_ms_per_op", ms(fixedCPU)/float64(n))
	res.set("alloc_mib_per_op", float64(fixedAlloc)/(1<<20)/float64(n))
	res.set("throughput_per_s", throughput)
	res.line("req_ms.p50", median(st.LatMS), "ms", fmt.Sprintf("from due time, %d requests at %.0f req/s", n, fixedRate))
	res.tail("req_ms.tail", st.LatMS, "ms")
	res.line("goodput_rps", st.Goodput, "req/s", fmt.Sprintf("correct and within %.0f ms", latencyLimitMS))
	res.line("loadgen.late_ms.p99", st.LateP99MS, "ms", fmt.Sprintf("invalid above %.0f ms", lateLimitMS))
	res.line("loadgen.queue_ms.mean", st.QueueMean, "ms", "due request waiting for a free connection")
	res.line("throughput_rps", throughput, "req/s", fmt.Sprintf("closed loop, %d connections back to back, %d requests in %.1f s", s.conns, closedN, closedTime.Seconds()))
	capacity := 0.0
	if found {
		capacity = fixedRate * math.Pow(ladderStep, float64(best))
	}
	note := fmt.Sprintf("highest rung with p95 <= %.0f ms, no failures, no growing backlog", latencyLimitMS)
	if capped {
		note += "; ladder stopped early, so this is a lower bound"
	}
	res.line("capacity_rps", capacity, "req/s", note)
	if st.LateP99MS > lateLimitMS {
		return fmt.Errorf("%w: load generator handed requests over late (p99 %.1f ms > %.0f ms); its latencies do not measure the offered rate, rerun on a quieter host", errInvalid, st.LateP99MS, lateLimitMS)
	}
	return nil
}

// tracedChunk is one chunk of the traced run with its request IDs and the
// instant its schedule started.
type tracedChunk struct {
	samples []sample
	ids     []string
	start   time.Time
}

// traced alternates chunks at the fixed rate, untraced and traced, until the
// run's time is up, so both kinds see the same host. A traced chunk tags its
// requests with IDs, turns the access log on and brackets itself with the
// program's exact counters; the deltas give the per-layer numbers. setup0
// and setup1 bracket the last set-up round's measured server, which is
// where the trace store works.
func (s *serveRun) traced(ctx context.Context, live *liveServer, rng *rand.Rand, seconds float64, tr *tracer, sink *accessSink, setup0, setup1 counters) error {
	res := s.res
	l := newLayers()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	pair := time.Duration(2 * fixedChunk / fixedRate * float64(time.Second))
	var plain, traced []sample
	var chunks []tracedChunk
	var wall time.Duration
	var poolBusy, serveSum, serveCount float64
	var snap service.Stats
	for i := 0; i%2 == 1 || time.Until(deadline) >= pair/2 && ctx.Err() == nil; i++ {
		sched := schedule(rng, fixedRate, fixedChunk, s.names)
		if i%2 == 0 {
			samples, _ := s.phase(ctx, live.url, sched, nil)
			plain = append(plain, samples...)
			continue
		}
		ids := make([]string, len(sched))
		for j := range ids {
			ids[j] = fmt.Sprintf("%s%d", tracedIDPrefix, len(traced)+j)
		}
		sink.enable(true)
		c0, snap0, m0 := readCounters(), live.srv.Snapshot(), readMem()
		samples, start := s.phase(ctx, live.url, sched, ids)
		traced = append(traced, samples...)
		// The counters and the access log are final once the last
		// handler has logged, which can be after its client has read the
		// answer.
		sink.await(len(traced))
		c1, snap1, m1 := readCounters(), live.srv.Snapshot(), readMem()
		sink.enable(false)
		chunks = append(chunks, tracedChunk{samples, ids, start})
		wall += summarize(fixedRate, samples, latencyLimitMS).Wall
		snap = snap1
		l.pipeline(c0, c1)
		l.runtime(m0, m1)
		l.add("harness.cells", float64(snap1.Pool.JobsDone-snap0.Pool.JobsDone))
		l.add("pool.busy_s", snap1.Pool.BusySeconds-snap0.Pool.BusySeconds)
		l.add("pool.wait_s", snap1.Pool.WaitSeconds-snap0.Pool.WaitSeconds)
		l.add("service.renders_per_req", float64(snap1.Renders-snap0.Renders))
		l.add("service.joins_per_req", float64(snap1.DedupJoins-snap0.DedupJoins))
		l.add("service.admission.queued", float64(snap1.Admission.Queued-snap0.Admission.Queued))
		l.add("service.admission.shed", float64(snap1.Admission.Shed-snap0.Admission.Shed))
		poolBusy += snap1.Pool.BusySeconds - snap0.Pool.BusySeconds
		serveSum += c1.delta(c0, "binebenchd_serve_seconds{}#sum")
		serveCount += c1.delta(c0, "binebenchd_serve_seconds{}#count")
	}
	plainStats := summarize(fixedRate, plain, latencyLimitMS)
	st := summarize(fixedRate, traced, latencyLimitMS)
	if st.LateP99MS > lateLimitMS || plainStats.LateP99MS > lateLimitMS {
		return fmt.Errorf("%w: load generator handed requests over late (p99 %.1f / %.1f ms > %.0f ms)", errInvalid, plainStats.LateP99MS, st.LateP99MS, lateLimitMS)
	}
	logged, err := sink.entries()
	if err != nil {
		return err
	}

	l.ops = len(traced)
	var leaders, missing int
	for _, c := range chunks {
		at := func(d time.Duration) time.Time { return c.start.Add(d) }
		for i, smp := range c.samples {
			id := c.ids[i]
			root := tr.add("request", id, -1, at(smp.Due), at(smp.Done))
			tr.add("loadgen.late", id, root, at(smp.Due), at(smp.Sent))
			tr.add("loadgen.conn_wait", id, root, at(smp.Sent), at(smp.Started))
			httpID := tr.add("http", id, root, at(smp.Started), at(smp.Done))
			e, ok := logged[id]
			if !ok {
				missing++
				continue
			}
			serveID := tr.add("service.serve", id, httpID, e.Time, e.Time.Add(time.Duration(e.DurMS*float64(time.Millisecond))))
			if e.Role != "leader" || e.Trace == nil {
				continue
			}
			leaders++
			callID := tr.add("service.flight", id, serveID, e.Trace.Start, e.Trace.Start.Add(time.Duration(e.Trace.WallMS*float64(time.Millisecond))))
			tr.importObs(callID, id, *e.Trace)
			l.add("harness.compile_s", tr.childTotal(callID, obs.StageCompile).Seconds())
			l.add("harness.execute_s", tr.childTotal(callID, obs.StageExecute).Seconds())
			l.add("harness.render_s", tr.childTotal(callID, obs.StageRender).Seconds())
			l.add("harness.self_s", tr.self(callID).Seconds())
		}
	}
	if missing > 0 {
		res.note("%d traced requests had no access-log line", missing)
	}
	// Concurrent requests' execute spans overlap, so utilization is taken
	// over the traced chunks' wall time rather than over summed execute time.
	l.set("pool.util", poolBusy/(float64(snap.Workers)*wall.Seconds()))
	l.set("harness.resident_trace_mib", float64(snap.Cache.CachedBytes)/(1<<20))
	l.set("tracestore.prewarm_s", snap.PrewarmSeconds)
	l.set("tracestore.prewarm_files", float64(snap.Prewarm.Files))
	l.set("tracestore.loads", setup1.delta(setup0, `binebench_tracestore_loads_total{result="hit"}`)+setup1.delta(setup0, `binebench_tracestore_loads_total{result="miss"}`))
	l.set("tracestore.load_busy_s", setup1.delta(setup0, "binebench_tracestore_load_seconds{}#sum"))
	l.set("service.serve_ms.mean", 1000*serveSum/serveCount)
	l.set("loadgen.late_ms.p99", st.LateP99MS)
	l.set("loadgen.queue_ms.mean", st.QueueMean)
	l.set("trace.overhead_frac", median(st.LatMS)/median(plainStats.LatMS)-1)
	l.finish(res)
	res.line("req_ms.p50.untraced", median(plainStats.LatMS), "ms", fmt.Sprintf("%d requests", len(plain)))
	res.line("req_ms.p50.traced", median(st.LatMS), "ms", fmt.Sprintf("%d requests, %d renders traced", len(traced), leaders))
	return nil
}

// trimmed shortens an error message for a report line.
func trimmed(s string) string {
	s = strings.TrimSpace(s)
	if len(s) > 160 {
		s = s[:160] + "..."
	}
	return s
}
