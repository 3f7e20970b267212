package cohort

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestFifoStatsCountsAndStalls(t *testing.T) {
	q, _ := NewFifo[int](4)
	for i := 0; i < 4; i++ {
		q.Push(i)
	}
	if q.TryPush(99) {
		t.Fatal("push succeeded on a full queue")
	}
	for i := 0; i < 4; i++ {
		q.Pop()
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("pop succeeded on an empty queue")
	}
	s := q.Stats()
	if s.Pushes != 4 || s.Pops != 4 {
		t.Errorf("pushes/pops = %d/%d, want 4/4", s.Pushes, s.Pops)
	}
	if s.PushStalls != 1 || s.PopStalls != 1 {
		t.Errorf("stalls = %d/%d, want 1/1", s.PushStalls, s.PopStalls)
	}
	if s.HighWater != 4 {
		t.Errorf("high water = %d, want 4", s.HighWater)
	}
}

func TestFifoStatsBulkAndSegments(t *testing.T) {
	q, _ := NewFifo[int](8)
	if n := q.TryPushSlice([]int{1, 2, 3}); n != 3 {
		t.Fatalf("TryPushSlice = %d, want 3", n)
	}
	a, _ := q.WriteSegments()
	a[0], a[1] = 4, 5
	q.CommitWrite(2)
	dst := make([]int, 5)
	if n := q.TryPopInto(dst); n != 5 {
		t.Fatalf("TryPopInto = %d, want 5", n)
	}
	if n := q.TryPopInto(dst); n != 0 {
		t.Fatalf("TryPopInto on empty = %d, want 0", n)
	}
	s := q.Stats()
	if s.Pushes != 5 || s.Pops != 5 {
		t.Errorf("pushes/pops = %d/%d, want 5/5", s.Pushes, s.Pops)
	}
	if s.HighWater != 5 {
		t.Errorf("high water = %d, want 5", s.HighWater)
	}
	if s.PopStalls != 1 {
		t.Errorf("pop stalls = %d, want 1", s.PopStalls)
	}
}

func TestRegistrySnapshotAndString(t *testing.T) {
	q, _ := NewFifo[Word](8)
	q.Push(7)
	q.Pop()
	oq, _ := NewFifo[Word](8)
	oq.Push(1)
	reg := NewRegistry()
	RegisterFifo(reg, "in-queue", q)
	RegisterFifo(reg, "out-queue", oq)
	snap := reg.Snapshot()
	if len(snap) != 2 || snap[0].Name != "in-queue" || snap[1].Name != "out-queue" {
		t.Fatalf("snapshot order/names wrong: %+v", snap)
	}
	find := func(ms []Metric, name string) uint64 {
		for _, m := range ms {
			if m.Name == name {
				return m.Value
			}
		}
		t.Fatalf("metric %q missing from %+v", name, ms)
		return 0
	}
	if v := find(snap[0].Metrics, "pushes"); v != 1 {
		t.Errorf("in-queue pushes = %d, want 1", v)
	}
	if v := find(snap[1].Metrics, "pushes"); v != 1 {
		t.Errorf("out-queue pushes = %d, want 1", v)
	}
	out := reg.String()
	for _, want := range []string{"in-queue:", "out-queue:", "pushes", "high_water"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
	reg.Unregister("in-queue")
	if snap := reg.Snapshot(); len(snap) != 1 || snap[0].Name != "out-queue" {
		t.Fatalf("after Unregister: %+v", snap)
	}
}

// failAfter fails Process once the given number of blocks have succeeded.
type failAfter struct {
	ok   int
	seen int
}

func (f *failAfter) Name() string               { return "fail-after" }
func (f *failAfter) InWords() int               { return 1 }
func (f *failAfter) OutWords() int              { return 1 }
func (f *failAfter) Configure(csr []byte) error { return nil }
func (f *failAfter) Process(in []Word) ([]Word, error) {
	if f.seen >= f.ok {
		return nil, errors.New("synthetic device fault")
	}
	f.seen++
	return in, nil
}

// TestEngineRecordsAcceleratorError is the satellite-2 check: a mid-stream
// Process failure must park the engine with a recorded error instead of
// panicking the process.
func TestEngineRecordsAcceleratorError(t *testing.T) {
	in, _ := NewFifo[Word](16)
	out, _ := NewFifo[Word](16)
	e, err := Register(&failAfter{ok: 2}, in, out)
	if err != nil {
		t.Fatal(err)
	}
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
	if msg := e.Err().Error(); !strings.Contains(msg, "fail-after") || !strings.Contains(msg, "synthetic device fault") {
		t.Errorf("Err() = %q, want accelerator name and cause", msg)
	}
	st := e.StatsDetail()
	if st.Errors != 1 {
		t.Errorf("Errors = %d, want 1", st.Errors)
	}
	if st.WordsOut != 2 {
		t.Errorf("WordsOut = %d, want 2 (blocks before the fault)", st.WordsOut)
	}
	e.Unregister() // must not hang on a parked engine
}

// TestEngineStatsDetailAndReset exercises the unified stats surface: the
// histogram gathers samples, parks are counted, and ResetStats zeroes
// everything.
func TestEngineStatsDetailAndReset(t *testing.T) {
	in, _ := NewFifo[Word](1024)
	out, _ := NewFifo[Word](1024)
	e, err := Register(NewNull(), in, out, WithBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Unregister()
	buf := make([]Word, 64)
	// Many small bursts, each started on a parked engine: wakeups for the
	// histogram sampler, and a park per idle gap.
	for round := 0; round < 8; round++ {
		awaitParks(e, uint64(round+1))
		for i := 0; i < 64; i++ {
			in.Push(Word(i))
		}
		out.PopSlice(buf)
	}
	st := e.StatsDetail()
	if st.WordsIn != 512 || st.WordsOut != 512 {
		t.Errorf("words in/out = %d/%d, want 512/512", st.WordsIn, st.WordsOut)
	}
	if st.Wakeups == 0 || st.Blocks != 512 {
		t.Errorf("wakeups/blocks = %d/%d", st.Wakeups, st.Blocks)
	}
	if st.BackoffSleeps < 8 {
		t.Errorf("parks = %d, want at least one per idle gap (8)", st.BackoffSleeps)
	}
	if st.Wakeups >= histoSampleEvery && st.DrainNs.Samples() == 0 {
		t.Errorf("histogram empty after %d wakeups", st.Wakeups)
	}
	if s := st.DrainNs.String(); st.DrainNs.Samples() > 0 && !strings.Contains(s, "ns:") {
		t.Errorf("histogram String() = %q", s)
	}
	// Quiesce first: a live engine woken by the pops above could park again
	// between the reset and the read.
	e.Unregister()
	e.ResetStats()
	st = e.StatsDetail()
	if st.WordsIn != 0 || st.Wakeups != 0 || st.BackoffSleeps != 0 || st.DrainNs.Samples() != 0 {
		t.Errorf("ResetStats left nonzero counters: %+v", st)
	}
}

// TestEngineTraceSpans checks the native half of the tentpole: a traced
// engine emits drain/compute/publish spans and an idle span per park into a
// Perfetto-loadable document.
func TestEngineTraceSpans(t *testing.T) {
	tr := NewFlightRecorder(4096)
	in, _ := NewFifo[Word](256)
	out, _ := NewFifo[Word](256)
	e, err := Register(NewNull(), in, out, WithBatch(4), WithFlightRecorder(tr, "null-engine"))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Word, 32)
	for round := 0; round < 4; round++ {
		for i := 0; i < 32; i++ {
			in.Push(Word(i))
		}
		out.PopSlice(buf)
		awaitParks(e, uint64(round+1)) // idle gap → idle span
	}
	e.Unregister()

	app := tr.Track("app")
	app.Instant("done")
	var bb bytes.Buffer
	if err := tr.WriteChrome(&bb, "native-test"); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(bb.Bytes(), &evs); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range evs {
		names[ev["name"].(string)] = true
	}
	for _, want := range []string{"drain", "compute", "publish", "done"} {
		if !names[want] {
			t.Errorf("trace missing %q events; have %v", want, names)
		}
	}
	if !names["idle"] {
		t.Errorf("trace has no idle spans; have %v", names)
	}
}

// TestFifoStatsNoAllocs keeps the counters honest: the instrumented queue
// operations must not allocate.
func TestFifoStatsNoAllocs(t *testing.T) {
	q, _ := NewFifo[Word](64)
	vs := []Word{1, 2, 3, 4}
	dst := make([]Word, 4)
	if n := testing.AllocsPerRun(100, func() {
		q.TryPushSlice(vs)
		q.TryPopInto(dst)
		q.TryPush(9)
		q.TryPop()
		q.Stats()
	}); n != 0 {
		t.Errorf("queue ops allocate %.1f per run, want 0", n)
	}
}
