package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"binetrees/internal/obs"
)

// span is one timed call the benchmark made or the program reported, on the
// tracer's clock. Spans of one request share its Tag (the X-Request-ID).
type span struct {
	ID     int
	Parent int // -1 for a root
	Name   string
	Tag    string
	interval
}

// tracer keeps the traced run's spans in memory; write puts them on disk
// when the run ends. A nil tracer records nothing, which is how untraced
// runs call the same code.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	stages []tagged // per-op stage aggregates from obs.Trace
}

type tagged struct {
	Tag    string                      `json:"tag"`
	Stages map[string]obs.StageSummary `json:"stages"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span covering [start, end] and returns its ID.
func (t *tracer) add(name, tag string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Tag: tag,
		interval: interval{start.Sub(t.t0), end.Sub(t.t0)}})
	return id
}

// importObs records the serial spans of a program-side obs.Trace as
// children of parent (nested ones under their enclosing span), and keeps
// its parallel stage aggregates.
func (t *tracer) importObs(parent int, tag string, sum obs.TraceSummary) {
	if t == nil {
		return
	}
	stack := []int{parent}
	for _, sp := range sum.Spans {
		if sp.Depth+1 < len(stack) {
			stack = stack[:sp.Depth+1]
		}
		start := sum.Start.Add(time.Duration(sp.StartMS * float64(time.Millisecond)))
		end := start.Add(time.Duration(sp.MS * float64(time.Millisecond)))
		id := t.add(sp.Name, tag, stack[len(stack)-1], start, end)
		stack = append(stack, id)
	}
	t.mu.Lock()
	t.stages = append(t.stages, tagged{Tag: tag, Stages: sum.Stages})
	t.mu.Unlock()
}

// self is span id's duration minus what its children cover.
func (t *tracer) self(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var kids []interval
	for _, s := range t.spans {
		if s.Parent == id {
			kids = append(kids, s.interval)
		}
	}
	return selfTime(t.spans[id].interval, kids)
}

// childTotal sums the durations of id's children named name.
func (t *tracer) childTotal(id int, name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Parent == id && s.Name == name {
			d += s.End - s.Start
		}
	}
	return d
}

type spanJSON struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Tag     string  `json:"tag,omitempty"`
	StartMS float64 `json:"start_ms"`
	MS      float64 `json:"ms"`
	SelfMS  float64 `json:"self_ms"`
}

// write saves the spans, with their self times, next to the build output.
func (t *tracer) write(path string, st stamp) error {
	if t == nil {
		return nil
	}
	out := struct {
		Stamp  stamp      `json:"stamp"`
		Spans  []spanJSON `json:"spans"`
		Stages []tagged   `json:"stages"`
	}{Stamp: st, Stages: t.stages}
	for _, s := range t.spans {
		out.Spans = append(out.Spans, spanJSON{ID: s.ID, Parent: s.Parent, Name: s.Name, Tag: s.Tag,
			StartMS: ms(s.Start), MS: ms(s.End - s.Start), SelfMS: ms(t.self(s.ID))})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
