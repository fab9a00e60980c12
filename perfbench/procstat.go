package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"binetrees/internal/obs"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// memSnap is the part of runtime.MemStats the benchmark diffs.
type memSnap struct {
	TotalAlloc, NumGC, PauseNs uint64
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{TotalAlloc: m.TotalAlloc, NumGC: uint64(m.NumGC), PauseNs: m.PauseTotalNs}
}

// counters is a flat view of the program's own exact counters in the obs
// registry: counter and gauge values, and histogram sums and counts, keyed
// by name{labels} (histograms add "#sum" and "#count").
type counters map[string]float64

func readCounters() counters {
	c := counters{}
	for _, m := range obs.Default.Snapshot() {
		key := m.Name + "{" + m.Labels + "}"
		if m.Histogram != nil {
			c[key+"#sum"] = m.Histogram.Sum
			c[key+"#count"] = float64(m.Histogram.Count)
			continue
		}
		c[key] = m.Value
	}
	return c
}

// delta returns after - before for one key.
func (after counters) delta(before counters, key string) float64 { return after[key] - before[key] }

// stageKey names the obs stage histogram of one pipeline stage.
func stageKey(stage, part string) string {
	return `binebench_stage_seconds{stage="` + stage + `"}#` + part
}

// stamp identifies the host, toolchain and source a result came from.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	Commit     string `json:"commit"`
	SourceSHA  string `json:"source_sha256"`
	Transport  string `json:"transport"`
}

func newStamp(workload string, seed int64, trace bool) stamp {
	return stamp{
		Workload:   workload,
		Seed:       seed,
		Trace:      trace,
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     commit(),
		SourceSHA:  sourceDigest("."),
		Transport:  "in-process; serve-warm over loopback HTTP",
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build saw
// one; a checkout without version control reports "none" and is identified
// by its source digest instead.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "none"
	}
	rev, dirty := "none", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// sourceDigest hashes the path and content of every Go source and module
// file under root, skipping dot directories (build output, VCS metadata).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
