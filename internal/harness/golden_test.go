package harness

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.sha256 from the current rendering")

// goldenPath holds one "sha256  name" line per quick artifact: every
// experiment plus the "all" aggregate.
var goldenPath = filepath.Join("testdata", "quick.sha256")

// TestQuickGoldenDigests pins the quick suite by content: the sha256 of
// RunAll's rendering and of each experiment rendered on its own must match
// the committed digests. Every other artifact gate compares two paths
// through the current code (cold vs warm store, 1 vs N workers, served vs
// CLI); this one fails when the numbers themselves move. Regenerate only
// on purpose, with `go test ./internal/harness -run TestQuickGoldenDigests
// -update`, and say in CHANGES.md why the artifacts changed.
func TestQuickGoldenDigests(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := Options{Quick: true}
	got := map[string]string{}
	digest := func(name string, render func(*strings.Builder) error) {
		var sb strings.Builder
		if err := render(&sb); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256([]byte(sb.String()))
		got[name] = hex.EncodeToString(sum[:])
	}
	digest("all", func(sb *strings.Builder) error { return RunAll(context.Background(), sb, opts) })
	names := ExperimentNames()
	for _, name := range names {
		digest(name, func(sb *strings.Builder) error { return RunExperiment(context.Background(), sb, name, opts) })
	}
	order := append([]string{"all"}, names...)
	if *update {
		var sb strings.Builder
		for _, name := range order {
			fmt.Fprintf(&sb, "%s  %s\n", got[name], name)
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	want := readGolden(t)
	for _, name := range order {
		if want[name] == "" {
			t.Errorf("%s: no pinned digest (new experiment?); got %s", name, got[name])
		} else if got[name] != want[name] {
			t.Errorf("%s: sha256 %s, pinned %s", name, got[name], want[name])
		}
	}
	for name := range want {
		if got[name] == "" {
			t.Errorf("%s: pinned but no longer rendered", name)
		}
	}
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenPath, sc.Text())
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
