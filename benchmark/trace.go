//go:build linux

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request share
// Req; Parent is the index of the span that caused this one, -1 for a root.
// Times are nanoseconds since the tracer's epoch.
type span struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds what one process keeps: a saturation window makes a span
// per Send and per RecvInto, far more than a reader of trace.json wants.
// Spans past the bound are counted, not kept.
const maxSpans = 1 << 16

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so an untraced window pays one nil check per call site.
type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	dropped int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, maxSpans)}
}

// add records one span and returns its index for children to name as parent
// (-1 when the span was not kept).
func (t *tracer) add(name string, req uint64, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name, req, parent, int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))})
	return len(t.spans) - 1
}

// traceSet is one process's spans, as written to trace.json.
type traceSet struct {
	Source  string `json:"source"`
	EpochNs int64  `json:"epoch_unix_ns"`
	Dropped int    `json:"dropped"`
	Spans   []span `json:"spans"`
}

func (t *tracer) set(source string) traceSet {
	t.mu.Lock()
	defer t.mu.Unlock()
	return traceSet{Source: source, EpochNs: t.epoch.UnixNano(), Dropped: t.dropped, Spans: t.spans}
}

// writeTrace writes the traced run's spans to <dir>/trace.json.
func writeTrace(dir string, seed int64, sets []traceSet) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Seed int64      `json:"seed"`
		Sets []traceSet `json:"sets"`
	}{seed, sets}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), b, 0o644)
}
