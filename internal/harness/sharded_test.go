package harness

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"

	"binetrees/internal/coll"
)

// serialSuite renders the quick suite the pre-sharding way: every
// experiment invoked one at a time, each draining its own pool — the
// per-system path the flat cross-system graph must reproduce byte for
// byte.
func serialSuite(t *testing.T, workers int) string {
	t.Helper()
	opts := Options{Quick: true, Workers: workers}
	var sb strings.Builder
	chain := []func(w io.Writer) error{
		func(w io.Writer) error { return Fig1(context.Background(), w) },
		func(w io.Writer) error { return Eq2(context.Background(), w) },
		func(w io.Writer) error { return Fig5(context.Background(), w, opts) },
		func(w io.Writer) error { return TableBinomial(context.Background(), w, LUMI(), opts) },
		func(w io.Writer) error { return HeatmapAllreduce(context.Background(), w, LUMI(), opts) },
		func(w io.Writer) error { return Boxplots(context.Background(), w, LUMI(), opts) },
		func(w io.Writer) error { return TableBinomial(context.Background(), w, Leonardo(), opts) },
		func(w io.Writer) error { return HeatmapAllreduce(context.Background(), w, Leonardo(), opts) },
		func(w io.Writer) error { return Boxplots(context.Background(), w, Leonardo(), opts) },
		func(w io.Writer) error { return TableBinomial(context.Background(), w, MareNostrum(), opts) },
		func(w io.Writer) error { return Boxplots(context.Background(), w, MareNostrum(), opts) },
		func(w io.Writer) error { return Fig11b(context.Background(), w, opts) },
		func(w io.Writer) error { return Fig14(context.Background(), w, opts) },
		func(w io.Writer) error { return Hier(context.Background(), w, opts) },
		func(w io.Writer) error { return PPN(context.Background(), w, opts) },
		func(w io.Writer) error { return AppD(context.Background(), w) },
	}
	for i, run := range chain {
		if i > 0 {
			fmt.Fprintln(&sb, strings.Repeat("=", 100))
		}
		if err := run(&sb); err != nil {
			t.Fatalf("serial step %d: %v", i, err)
		}
	}
	return sb.String()
}

// TestShardedRunAllByteIdentical pins the tentpole guarantee: RunAll's
// flat cross-system job graph — every system's cells drained at once on
// one shared pool, every sweep compiled once in one shared sweep table —
// renders byte-identically to the serial per-system path, where each
// standalone driver compiles its own table, at worker counts {1, NumCPU}.
func TestShardedRunAllByteIdentical(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	reference := serialSuite(t, 1)
	for _, workers := range []int{1, runtime.NumCPU()} {
		ResetTraceCache()
		var sb strings.Builder
		if err := RunAll(context.Background(), &sb, Options{Quick: true, Workers: workers}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sb.String() != reference {
			t.Fatalf("sharded RunAll (workers=%d) diverges from the serial per-system path", workers)
		}
	}
}

// TestRunAllSystemsSelector pins the -systems behavior: a selection keeps
// exactly its artifact groups, in paper order.
func TestRunAllSystemsSelector(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	var sb strings.Builder
	err := RunAll(context.Background(), &sb, Options{Quick: true, Workers: runtime.NumCPU(), Systems: []string{"marenostrum"}})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "MareNostrum") {
		t.Fatalf("selection missing its system:\n%s", out)
	}
	for _, absent := range []string{"LUMI", "Leonardo", "Fugaku", "Fig. 1"} {
		if strings.Contains(out, absent) {
			t.Fatalf("selection %q leaked %q:\n%s", "marenostrum", absent, out)
		}
	}
	if err := RunAll(context.Background(), io.Discard, Options{Quick: true, Systems: []string{"nonesuch"}}); err == nil {
		t.Fatal("unknown system key accepted")
	}
}

// TestRunAllProgressCounters pins the per-system progress accounting: every
// job-graph cell reports exactly once, done counts ascend per system, and
// the final done equals the advertised total.
func TestRunAllProgressCounters(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	var mu sync.Mutex
	events := 0
	last := map[string]int{}
	totals := map[string]int{}
	progress := func(system string, done, total int) {
		mu.Lock()
		defer mu.Unlock()
		events++
		if done != last[system]+1 {
			t.Errorf("%s: done jumped %d -> %d", system, last[system], done)
		}
		last[system] = done
		totals[system] = total
	}
	err := RunAll(context.Background(), io.Discard, Options{Quick: true, Workers: runtime.NumCPU(), Progress: progress})
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("no progress events")
	}
	sum := 0
	for system, total := range totals {
		if last[system] != total {
			t.Errorf("%s: finished at %d of %d", system, last[system], total)
		}
		sum += total
	}
	if sum != events {
		t.Fatalf("%d events for %d cells", events, sum)
	}
	for _, system := range []string{"lumi", "leonardo", "marenostrum", "fugaku", "misc"} {
		if totals[system] == 0 {
			t.Errorf("no cells labeled %q", system)
		}
	}
}

// TestRunAllCompilesEachSweepOnce pins the compile-scope sweep table: one
// quick pass replays the allocator churn once per distinct (system, node
// counts) — the three sweep systems plus PPN's 64-node LUMI job — compiles
// each (system, collective) sweep once however many plans read it, and
// dispatches each cell once. Without the table the same pass replayed
// Placements 52 times and dispatched 1,426 cells.
func TestRunAllCompilesEachSweepOnce(t *testing.T) {
	opts := Options{Quick: true, Workers: runtime.NumCPU()}
	tab := newSweepTable()
	for _, s := range steps() {
		if _, err := s.plan(opts, tab); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
	}
	wantModels := map[modelKey]bool{
		{system: "lumi", counts: "[16 32 64 128]"}:        true,
		{system: "leonardo", counts: "[16 32 64 128]"}:    true,
		{system: "marenostrum", counts: "[4 8 16 32 64]"}: true,
		{system: "lumi", counts: "[64]"}:                  true,
	}
	if len(tab.models) != len(wantModels) {
		t.Errorf("%d system models (Placements replays), want %d", len(tab.models), len(wantModels))
	}
	for k := range tab.models {
		if !wantModels[k] {
			t.Errorf("unexpected system model %+v", k)
		}
	}
	// Tables 3–5 and the boxplots cover every collective; the heatmaps and
	// Fig. 14 reuse LUMI's and Leonardo's sweeps.
	if want := 3 * len(coll.Collectives); len(tab.sweeps) != want {
		t.Errorf("%d sweeps compiled, want %d", len(tab.sweeps), want)
	}

	ResetTraceCache()
	defer ResetTraceCache()
	var mu sync.Mutex
	totals := map[string]int{}
	opts.Progress = func(system string, _, total int) {
		mu.Lock()
		totals[system] = total
		mu.Unlock()
	}
	if err := RunAll(context.Background(), io.Discard, opts); err != nil {
		t.Fatal(err)
	}
	cells := 0
	for _, total := range totals {
		cells += total
	}
	if cells != 711 {
		t.Fatalf("quick RunAll dispatched %d cells, want 711 (%v)", cells, totals)
	}
}
