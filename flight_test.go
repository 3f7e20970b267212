package cohort

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestFlightRecorderEngineSpans: an engine attached to a flight recorder
// emits the same span vocabulary as a traced engine, into a bounded ring
// that can be snapshotted while the engine runs.
func TestFlightRecorderEngineSpans(t *testing.T) {
	fr := NewFlightRecorder(64)
	in, _ := NewFifo[Word](256)
	out, _ := NewFifo[Word](256)
	e, err := Register(NewNull(), in, out, WithBatch(4), WithFlightRecorder(fr, "null-engine"))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Word, 32)
	for round := 0; round < 8; round++ {
		for i := 0; i < 32; i++ {
			in.Push(Word(i))
		}
		out.PopSlice(buf)
		// Snapshot mid-run: legal for a flight recorder, and must stay bounded.
		var bb bytes.Buffer
		if err := fr.WriteChrome(&bb, "mid-run"); err != nil {
			t.Fatal(err)
		}
	}
	e.Unregister()

	var bb bytes.Buffer
	if err := fr.WriteChrome(&bb, "final"); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(bb.Bytes(), &evs); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	names := map[string]bool{}
	count := 0
	for _, ev := range evs {
		names[ev["name"].(string)] = true
		if ev["ph"] != "M" {
			count++
		}
	}
	for _, want := range []string{"drain", "compute", "publish"} {
		if !names[want] {
			t.Errorf("flight ring missing %q events; have %v", want, names)
		}
	}
	if count > 64 {
		t.Errorf("ring dumped %d events, capacity is 64", count)
	}
}

// TestFlightRecorderAutoDumpOnEngineError is the tentpole's failure path: an
// engine parking with a terminal error must dump the ring to the configured
// sink, with the "error" instant as the final recorded moment.
func TestFlightRecorderAutoDumpOnEngineError(t *testing.T) {
	fr := NewFlightRecorder(128)
	var mu sync.Mutex
	var dump bytes.Buffer
	var reason string
	fr.SetAutoDump(&dump, func(r string) {
		mu.Lock()
		reason = r
		mu.Unlock()
	})

	in, _ := NewFifo[Word](16)
	out, _ := NewFifo[Word](16)
	e, err := Register(&failAfter{ok: 2}, in, out, WithFlightRecorder(fr, "flaky"))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Unregister()
	in.PushSlice([]Word{1, 2, 3, 4})
	deadline := time.After(5 * time.Second)
	for e.Err() == nil {
		select {
		case <-deadline:
			t.Fatal("engine never recorded the accelerator error")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	// AutoDump runs on the engine goroutine just before it parks; wait for it.
	for fr.Dumps() == 0 {
		select {
		case <-deadline:
			t.Fatal("flight recorder never auto-dumped")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(reason, "fail-after") || !strings.Contains(reason, "synthetic device fault") {
		t.Errorf("dump reason = %q, want accelerator name and cause", reason)
	}
	var evs []map[string]any
	if err := json.Unmarshal(dump.Bytes(), &evs); err != nil {
		t.Fatalf("auto-dump is not valid trace JSON: %v", err)
	}
	sawError := false
	for _, ev := range evs {
		if ev["name"] == "error" {
			sawError = true
		}
	}
	if !sawError {
		t.Error("auto-dump does not contain the terminal 'error' instant")
	}
}

// TestFlightRecorderManualDumpAndTracks: application tracks land in the ring
// and AutoDump fires the callback even with no sink configured.
func TestFlightRecorderManualDumpAndTracks(t *testing.T) {
	fr := NewFlightRecorder(8)
	app := fr.Track("app")
	s := app.Begin()
	app.End("phase", s)
	app.Instant("mark")
	app.Counter("depth", 7)
	called := ""
	fr.SetAutoDump(nil, func(r string) { called = r })
	fr.AutoDump("operator requested")
	if called != "operator requested" {
		t.Errorf("callback got %q", called)
	}
	if fr.Dumps() != 1 {
		t.Errorf("Dumps() = %d, want 1", fr.Dumps())
	}
	var bb bytes.Buffer
	if err := fr.WriteChrome(&bb, "app"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"phase", "mark", "depth"} {
		if !strings.Contains(bb.String(), want) {
			t.Errorf("dump missing %q: %s", want, bb.String())
		}
	}
}
