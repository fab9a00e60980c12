// Command perfbench is the repository's benchmark: it runs one workload of
// the Bine Trees artifact pipeline for a fixed time, checks every output
// against committed sha256 digests, and prints each metric with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 70, "failed": 0, "metrics": {"setup_s": {"value": 1.23, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end set, measured with tracing
// off; with -trace 1 they are the per-layer set, from a traced run. Run it
// from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload quick-cold --seed 1 --seconds 30 --trace 0
//
// README.md in this directory says why each workload exists.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"binetrees/internal/obs"
)

// processStart is the earliest instant the benchmark can observe; setup_s
// counts its first set-up round from here.
var processStart = time.Now()

// metricDef names a metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd is what a user of the pipeline sees, measured with tracing off.
// Every workload reports every one of them; "op" is a whole pass on the
// batch workloads and one request on serve-warm.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms.p50", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mib_per_op", "MiB"},
	{"peak_rss_mib", "MiB"},
	{"throughput_per_s", "1/s"},
}

// perLayer is measured in the traced run only, per op unless the name says
// otherwise. A layer a workload does not use reads 0.
var perLayer = []metricDef{
	{"harness.compile_s", "s"},
	{"harness.execute_s", "s"},
	{"harness.render_s", "s"},
	{"harness.self_s", "s"},
	{"harness.cells", "count"},
	{"harness.resolves.memory", "count"},
	{"harness.resolves.store", "count"},
	{"harness.resolves.synth", "count"},
	{"harness.resolves.record", "count"},
	{"harness.resident_trace_mib", "MiB"},
	{"synth.busy_s", "s"},
	{"synth.calls", "count"},
	{"netsim.evaluate_busy_s", "s"},
	{"netsim.evaluate_calls", "count"},
	{"pool.busy_s", "s"},
	{"pool.wait_s", "s"},
	{"pool.util", "ratio"},
	{"tracestore.prewarm_s", "s"},
	{"tracestore.prewarm_files", "count"},
	{"tracestore.loads", "count"},
	{"tracestore.load_busy_s", "s"},
	{"service.renders_per_req", "ratio"},
	{"service.joins_per_req", "ratio"},
	{"service.serve_ms.mean", "ms"},
	{"service.admission.queued", "count"},
	{"service.admission.shed", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"loadgen.late_ms.p99", "ms"},
	{"loadgen.queue_ms.mean", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// unitOf looks a metric's unit up in either catalog.
func unitOf(name string) string {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result collects a run's metrics and the human-readable report lines
// printed before the JSON line.
type result struct {
	values    map[string]float64
	lines     []string
	attempted int
	failed    int
}

func newResult() *result { return &result{values: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.values[name] = v }

// line adds a report line: a named figure with its unit and a note.
func (r *result) line(name string, v float64, unit, note string) {
	r.lines = append(r.lines, fmt.Sprintf("%-28s %14.6g %-6s %s", name, v, unit, note))
}

func (r *result) note(format string, args ...any) {
	r.lines = append(r.lines, "note: "+fmt.Sprintf(format, args...))
}

// tail reports the tail rule's percentile of xs with its sample count, or
// says why it is omitted.
func (r *result) tail(name string, xs []float64, unit string) {
	t, ok := tailOf(xs)
	if !ok {
		r.lines = append(r.lines, fmt.Sprintf("%-28s %14s %-6s omitted: %d samples, fewer than %d beyond p%g", name, "-", unit, t.N, minBeyond, tailPercentiles[len(tailPercentiles)-1]))
		return
	}
	r.line(name, t.Value, unit, fmt.Sprintf("p%g of %d samples, %d beyond it", t.P, t.N, t.Beyond))
}

// output returns the JSON result line for one catalog; every catalog metric
// must have been measured.
func (r *result) output(defs []metricDef) ([]byte, error) {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = metric{v, d.Unit}
	}
	return json.Marshal(out)
}

// errInvalid marks a run whose measurement cannot be trusted, as opposed to
// one that measured a regression; such a run prints no result.
var errInvalid = errors.New("invalid run")

func main() {
	workload := flag.String("workload", "", "quick-cold, paper-lumi-cold or serve-warm")
	seed := flag.Int64("seed", 1, "workload seed: drives serve-warm's arrivals and mix; recorded for all")
	seconds := flag.Float64("seconds", 30, "measurement time per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.Parse()
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1 and -seconds positive")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	st := newStamp(*workload, *seed, *trace == 1)
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	res := newResult()
	var err error
	if w, ok := batchWorkloads[*workload]; ok {
		runBatch(ctx, w, *seconds, tr, res)
	} else if *workload == "serve-warm" {
		err = runServe(ctx, *seed, *seconds, tr, res)
	} else {
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	if err != nil {
		for _, l := range res.lines {
			fmt.Fprintln(os.Stderr, l)
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if errors.Is(err, errInvalid) {
			os.Exit(3)
		}
		os.Exit(1)
	}
	defs := endToEnd
	if tr != nil {
		defs = perLayer
		path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-seed%d.json", *workload, *seed))
		if err := tr.write(path, st); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			os.Exit(1)
		}
		res.note("spans written to %s", path)
	}
	line, err := res.output(defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	stampJSON, _ := json.Marshal(st)
	fmt.Printf("stamp: %s\n", stampJSON)
	for _, l := range res.lines {
		fmt.Println(l)
	}
	for _, name := range sortedKeys(res.values) {
		fmt.Printf("%-28s %14.6g %s\n", name, res.values[name], unitOf(name))
	}
	fmt.Println(string(line))
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// layers accumulates per-layer figures over a traced run's ops: sum holds
// per-op figures (reported as their mean over ops), fixed holds figures
// reported as they are.
type layers struct {
	ops   int
	sum   map[string]float64
	fixed map[string]float64
}

func newLayers() *layers { return &layers{sum: map[string]float64{}, fixed: map[string]float64{}} }

func (l *layers) add(name string, v float64) { l.sum[name] += v }
func (l *layers) set(name string, v float64) { l.fixed[name] = v }

// pipeline adds the synth, evaluate and resolver counters' change over one
// op (or one traced phase).
func (l *layers) pipeline(c0, c1 counters) {
	for _, origin := range obs.Origins() {
		l.add("harness.resolves."+origin, c1.delta(c0, `binebench_resolves_total{origin="`+origin+`"}`))
	}
	l.add("synth.busy_s", c1.delta(c0, stageKey(obs.StageSynth, "sum")))
	l.add("synth.calls", c1.delta(c0, stageKey(obs.StageSynth, "count")))
	l.add("netsim.evaluate_busy_s", c1.delta(c0, stageKey(obs.StageEvaluate, "sum")))
	l.add("netsim.evaluate_calls", c1.delta(c0, stageKey(obs.StageEvaluate, "count")))
}

func (l *layers) runtime(m0, m1 memSnap) {
	l.add("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC))
	l.add("runtime.gc_pause_s", float64(m1.PauseNs-m0.PauseNs)/1e9)
}

// finish reports every per-layer metric: fixed figures as set, per-op ones
// as their mean, and 0 for layers the workload does not use.
func (l *layers) finish(res *result) {
	for _, d := range perLayer {
		v, ok := l.fixed[d.Name]
		if !ok && l.ops > 0 {
			v = l.sum[d.Name] / float64(l.ops)
		}
		res.set(d.Name, v)
	}
}
