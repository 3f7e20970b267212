package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// fakeClock returns a clock function backed by a settable cursor.
func fakeClock() (func() uint64, *uint64) {
	t := new(uint64)
	return func() uint64 { return *t }, t
}

func TestSpanInstantCounter(t *testing.T) {
	clk, cur := fakeClock()
	r := New(clk, 0)
	trk := r.Track("engine")

	*cur = 10
	start := r.Now()
	*cur = 25
	trk.Span("drain", start)
	trk.Instant("publish")
	trk.Counter("occupancy", 7)
	trk.SpanAt("link", 100, 4)

	s := r.Snapshot("p")
	if len(s.Tracks) != 1 || s.Tracks[0].Name != "engine" {
		t.Fatalf("tracks = %+v", s.Tracks)
	}
	evs := s.Tracks[0].Events
	if len(evs) != 4 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0] != (Event{Name: "drain", Kind: KindSpan, Start: 10, Dur: 15}) {
		t.Errorf("span = %+v", evs[0])
	}
	if evs[1].Kind != KindInstant || evs[1].Start != 25 {
		t.Errorf("instant = %+v", evs[1])
	}
	if evs[2].Kind != KindCounter || evs[2].Value != 7 {
		t.Errorf("counter = %+v", evs[2])
	}
	if evs[3] != (Event{Name: "link", Kind: KindSpan, Start: 100, Dur: 4}) {
		t.Errorf("spanAt = %+v", evs[3])
	}
}

func TestTrackIdentityAndReuse(t *testing.T) {
	clk, _ := fakeClock()
	r := New(clk, 0)
	a := r.Track("x")
	b := r.Track("x")
	if a != b {
		t.Fatal("same name produced distinct tracks")
	}
	r.Track("y")
	s := r.Snapshot("")
	if len(s.Tracks) != 2 || s.Tracks[0].Name != "x" || s.Tracks[1].Name != "y" {
		t.Fatalf("track order = %+v", s.Tracks)
	}
}

// TestNilRecorderIsFree: a nil *Recorder and its nil tracks are inert,
// whatever shape a live recorder would have had.
func TestNilRecorderIsFree(t *testing.T) {
	var r *Recorder
	if r.Now() != 0 {
		t.Fatal("nil Now != 0")
	}
	trk := r.Track("anything")
	if trk != nil {
		t.Fatal("nil recorder returned a track")
	}
	// All of these must be harmless no-ops.
	trk.Instant("i")
	trk.Span("s", 5)
	trk.SpanAt("sa", 1, 2)
	trk.Counter("c", 3)
	if s := r.Snapshot("p"); len(s.Tracks) != 0 || s.Process != "p" {
		t.Fatalf("nil snapshot = %+v", s)
	}
}

func TestSpanClampsBackwardClock(t *testing.T) {
	clk, cur := fakeClock()
	r := New(clk, 0)
	trk := r.Track("t")
	*cur = 50
	start := r.Now()
	*cur = 40 // clock moved backward (cannot happen in the sim; defensive)
	trk.Span("s", start)
	if e := r.Snapshot("").Tracks[0].Events[0]; e.Dur != 0 {
		t.Fatalf("negative-duration span leaked: %+v", e)
	}
}

func TestWriteChromeMultiProcess(t *testing.T) {
	clk, cur := fakeClock()
	r1 := New(clk, 0)
	r1.Track("noc").SpanAt("hop", 0, 3)
	*cur = 5
	r1.Track("dir").Instant("GetS")
	r1.Track("dir").Counter("queued", 2)

	r2 := New(clk, 0)
	r2.Track("maple").SpanAt("dma", 1, 9)

	var buf bytes.Buffer
	if err := WriteChrome(&buf, r1.Snapshot("cohort run"), r2.Snapshot("dma run")); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}

	pids := map[float64]bool{}
	phases := map[string]int{}
	var procNames, threadNames []string
	for _, e := range evs {
		pids[e["pid"].(float64)] = true
		ph := e["ph"].(string)
		phases[ph]++
		if ph == "M" {
			name := e["args"].(map[string]any)["name"].(string)
			if e["name"] == "process_name" {
				procNames = append(procNames, name)
			} else {
				threadNames = append(threadNames, name)
			}
		}
	}
	if len(pids) != 2 {
		t.Fatalf("pids = %v, want 2 processes", pids)
	}
	if phases["X"] != 2 || phases["i"] != 1 || phases["C"] != 1 {
		t.Fatalf("phases = %v", phases)
	}
	if len(procNames) != 2 || procNames[0] != "cohort run" || procNames[1] != "dma run" {
		t.Fatalf("process names = %v", procNames)
	}
	if len(threadNames) != 3 {
		t.Fatalf("thread names = %v", threadNames)
	}
	// Data events come first so minimal consumers see a data phase at [0].
	if ph := evs[0]["ph"]; ph != "X" && ph != "i" && ph != "C" {
		t.Fatalf("first event phase = %v", ph)
	}
}

func TestNewWallMonotonic(t *testing.T) {
	r := NewWall(0)
	a := r.Now()
	b := r.Now()
	if b < a {
		t.Fatalf("wall clock went backward: %d -> %d", a, b)
	}
}

// TestFlightBoundedRing writes far more events than the ring holds and checks
// the snapshot keeps exactly the newest perTrack events, oldest first.
func TestFlightBoundedRing(t *testing.T) {
	var clock uint64
	r := New(func() uint64 { clock++; return clock }, 8)
	trk := r.Track("eng")
	for i := 0; i < 100; i++ {
		trk.Instant("tick")
	}
	snap := r.Snapshot("p")
	if len(snap.Tracks) != 1 || len(snap.Tracks[0].Events) != 8 {
		t.Fatalf("snapshot shape wrong: %+v", snap)
	}
	// The 100 instants were stamped 1..100; the ring keeps 93..100, so 92
	// were overwritten.
	for i, e := range snap.Tracks[0].Events {
		if want := uint64(93 + i); e.Start != want {
			t.Errorf("event %d stamped %d, want %d (oldest-first order)", i, e.Start, want)
		}
	}
}

// TestFlightPartialRing checks the snapshot before the ring wraps: nothing
// is dropped and events keep their write order.
func TestFlightPartialRing(t *testing.T) {
	r := NewWall(16)
	trk := r.Track("a")
	trk.Instant("one")
	trk.SpanAt("two", 5, 7)
	trk.Counter("depth", 3)
	evs := r.Snapshot("p").Tracks[0].Events
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[0].Name != "one" || evs[0].Kind != KindInstant {
		t.Errorf("event 0 = %+v", evs[0])
	}
	if evs[1].Name != "two" || evs[1].Kind != KindSpan || evs[1].Start != 5 || evs[1].Dur != 7 {
		t.Errorf("event 1 = %+v", evs[1])
	}
	if evs[2].Name != "depth" || evs[2].Kind != KindCounter || evs[2].Value != 3 {
		t.Errorf("event 2 = %+v", evs[2])
	}
}

// TestFlightConcurrentSnapshot hammers several tracks from several goroutines
// while snapshotting continuously, for a bounded and an unbounded recorder —
// the race detector validates the any-time-snapshot claim, and every observed
// snapshot must be internally consistent: no more than perTrack events, with
// monotone non-decreasing timestamps per track.
func TestFlightConcurrentSnapshot(t *testing.T) {
	for _, per := range []int{32, 0} {
		t.Run(fmt.Sprintf("perTrack=%d", per), func(t *testing.T) {
			r := NewWall(per)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(trk *Track) {
					defer wg.Done()
					// Bounded so the unbounded tracks stay small.
					for i := 0; i < 2000; i++ {
						select {
						case <-stop:
							return
						default:
						}
						start := r.Now()
						trk.Span("work", start)
						trk.Counter("i", int64(i))
					}
				}(r.Track(fmt.Sprintf("w%d", w)))
			}
			for i := 0; i < 200; i++ {
				for _, tr := range r.Snapshot("p").Tracks {
					if per > 0 && len(tr.Events) > per {
						t.Fatalf("track %s grew beyond the ring: %d events", tr.Name, len(tr.Events))
					}
					for j := 1; j < len(tr.Events); j++ {
						if tr.Events[j].Start < tr.Events[j-1].Start {
							t.Fatalf("track %s out of order at %d: %+v", tr.Name, j, tr.Events[j-1:j+1])
						}
					}
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}

// TestFlightWriteChrome: ring snapshots feed the same Chrome serializer as
// full recorder snapshots.
func TestFlightWriteChrome(t *testing.T) {
	r := NewWall(4)
	r.Track("e").Instant("boom")
	var b bytes.Buffer
	if err := WriteChrome(&b, r.Snapshot("flight")); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(b.Bytes(), &evs); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	found := false
	for _, e := range evs {
		if e["name"] == "boom" {
			found = true
		}
	}
	if !found {
		t.Errorf("dump missing the recorded instant: %s", b.String())
	}
}

// TestFlightNilSafety: with the flight recorder off the engine still holds a
// nil *Track and still dumps, so writes on that track must cost no
// allocation and a dump of the nil recorder must be valid, event-free JSON.
func TestFlightNilSafety(t *testing.T) {
	var r *Recorder
	trk := r.Track("x")
	if trk != nil {
		t.Fatal("nil recorder returned a track")
	}
	if a := testing.AllocsPerRun(100, func() {
		trk.Instant("a")
		trk.Span("b", r.Now())
		trk.SpanAt("c", 0, 1)
		trk.Counter("d", 1)
	}); a != 0 {
		t.Errorf("nil track writes allocate %v times per run, want 0", a)
	}
	var b bytes.Buffer
	if err := WriteChrome(&b, r.Snapshot("flight")); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(b.Bytes(), &evs); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if len(evs) != 1 || evs[0]["name"] != "process_name" {
		t.Errorf("nil dump = %s, want only the process_name metadata", b.String())
	}
}
