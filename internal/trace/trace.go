// Package trace is the shared observability event model for both Cohort
// runtimes: the cycle-level SoC simulator (timestamps are cycles) and the
// native Go runtime (timestamps are wall-clock microseconds). A Recorder
// collects named Tracks of span, instant and counter events in whatever time
// domain its clock reports, and WriteChrome serializes one or more recorded
// processes as a single Chrome trace-event JSON file, loadable at
// chrome://tracing or https://ui.perfetto.dev.
//
// One Recorder comes in two shapes, chosen by its per-track bound. A bounded
// recorder keeps the newest perTrack events of every track in a fixed ring —
// the native runtime's always-on flight recorder, whose memory never grows.
// An unbounded one (perTrack 0) keeps every event — the simulator's, whose
// whole timeline is the product. Either may be snapshotted at any time,
// concurrently with its writers: every write takes only its own track's
// mutex, so distinct tracks never contend.
//
// The API is built so that disabled tracing is guaranteed free: a nil
// *Recorder yields nil *Tracks, and every Track method is a no-op on a nil
// receiver — no formatting, no allocation, no clock reads. Callers hold a
// Track (or a precomputed track-name string) unconditionally and emit events
// without guarding call sites.
package trace

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Kind distinguishes timeline entry types.
type Kind uint8

// Event kinds.
const (
	KindSpan    Kind = iota // a duration on the track's timeline
	KindInstant             // a zero-duration marker
	KindCounter             // a sampled value, rendered as a counter track
)

// Event is one timeline entry on a track. Timestamps are in the recorder's
// time domain (cycles or microseconds).
type Event struct {
	Name  string
	Kind  Kind
	Start uint64
	Dur   uint64 // spans only
	Value int64  // counters only
}

// Recorder collects tracks of events stamped by a caller-supplied clock.
// A nil *Recorder is the disabled state: Track returns nil and Now returns 0.
type Recorder struct {
	now func() uint64
	per int

	mu     sync.Mutex
	tracks map[string]*Track
	order  []*Track
}

// New returns a recorder whose events are stamped by now, keeping the newest
// perTrack events of each track; perTrack 0 (or less) keeps every event. The
// clock's unit is the caller's choice (the simulator passes cycles); WriteChrome
// presents one unit as one microsecond on the viewer's axis.
func New(now func() uint64, perTrack int) *Recorder {
	return &Recorder{now: now, per: perTrack, tracks: make(map[string]*Track)}
}

// NewWall returns a recorder stamping events with wall-clock microseconds
// since its creation — the native runtime's time domain.
func NewWall(perTrack int) *Recorder {
	start := time.Now()
	return New(func() uint64 { return uint64(time.Since(start) / time.Microsecond) }, perTrack)
}

// Now returns the current timestamp, or 0 when disabled.
func (r *Recorder) Now() uint64 {
	if r == nil {
		return 0
	}
	return r.now()
}

// Track returns the named track, creating it on first use (a bounded track
// allocates its whole ring here); repeated calls with the same name return
// the same track. Returns nil on a nil recorder — every Track method no-ops
// on nil, so callers hold tracks unconditionally. Safe for concurrent use.
func (r *Recorder) Track(name string) *Track {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tracks[name]
	if t == nil {
		t = &Track{r: r, name: name}
		if r.per > 0 {
			t.events = make([]Event, 0, r.per)
		}
		r.tracks[name] = t
		r.order = append(r.order, t)
	}
	return t
}

// Track is one named timeline. Every write takes the track's own mutex, so a
// track may have concurrent writers and be snapshotted while written. All
// methods are no-ops on a nil receiver.
type Track struct {
	r    *Recorder
	name string

	mu     sync.Mutex
	events []Event // grows to r.per, then is a ring whose next slot is n%r.per
	n      uint64  // events ever written
}

func (t *Track) add(e Event) {
	t.mu.Lock()
	if t.r.per <= 0 || len(t.events) < t.r.per {
		t.events = append(t.events, e)
	} else {
		t.events[t.n%uint64(t.r.per)] = e
	}
	t.n++
	t.mu.Unlock()
}

// Instant records a zero-duration marker at the current time.
func (t *Track) Instant(name string) {
	if t == nil {
		return
	}
	t.add(Event{Name: name, Kind: KindInstant, Start: t.r.now()})
}

// Span records a duration from start (a value previously obtained from
// Recorder.Now) to the current time.
func (t *Track) Span(name string, start uint64) {
	if t == nil {
		return
	}
	now := t.r.now()
	if now < start {
		now = start
	}
	t.add(Event{Name: name, Kind: KindSpan, Start: start, Dur: now - start})
}

// SpanAt records a duration with explicit bounds — used when the span's
// extent is known up front (e.g. a NoC link occupied for a computed number of
// cycles, possibly in the simulated future).
func (t *Track) SpanAt(name string, start, dur uint64) {
	if t == nil {
		return
	}
	t.add(Event{Name: name, Kind: KindSpan, Start: start, Dur: dur})
}

// Counter records a sampled value at the current time; the viewer renders
// successive samples with the same name as a staircase counter track.
func (t *Track) Counter(name string, v int64) {
	if t == nil {
		return
	}
	t.add(Event{Name: name, Kind: KindCounter, Start: t.r.now(), Value: v})
}

// snapshot copies the track's events oldest-first.
func (t *Track) snapshot() TrackSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	head := 0 // oldest slot; nonzero only once a ring has wrapped
	if t.n > uint64(len(t.events)) {
		head = int(t.n % uint64(len(t.events)))
	}
	out := make([]Event, 0, len(t.events))
	out = append(out, t.events[head:]...)
	return TrackSnapshot{Name: t.name, Events: append(out, t.events[:head]...)}
}

// TrackSnapshot is one track's recorded events.
type TrackSnapshot struct {
	Name   string
	Events []Event
}

// Snapshot is one process's recorded timeline: what one Recorder collected,
// labelled for merging with other processes in a single trace file.
type Snapshot struct {
	Process string
	Tracks  []TrackSnapshot
}

// Snapshot copies every track's events, oldest first, under the given
// process label. Safe at any time, including while tracks are being written.
// A nil recorder yields an empty snapshot.
func (r *Recorder) Snapshot(process string) Snapshot {
	s := Snapshot{Process: process}
	if r == nil {
		return s
	}
	r.mu.Lock()
	order := append([]*Track(nil), r.order...)
	r.mu.Unlock()
	for _, t := range order {
		s.Tracks = append(s.Tracks, t.snapshot())
	}
	return s
}

// chromeEvent is the trace-event JSON wire format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome serializes one or more process snapshots as a single Chrome
// trace-event JSON array: each snapshot becomes a pid, each track a named
// tid. One recorder time unit is written as one microsecond on the viewer's
// axis (cycle-domain recorders thus show 1 cycle = 1 µs). Process and thread
// name metadata is appended after the data events.
func WriteChrome(w io.Writer, procs ...Snapshot) error {
	var out []chromeEvent
	var meta []chromeEvent
	for pi, p := range procs {
		pid := pi + 1
		if p.Process != "" {
			meta = append(meta, chromeEvent{
				Name: "process_name", Ph: "M", PID: pid,
				Args: map[string]any{"name": p.Process},
			})
		}
		for ti, tr := range p.Tracks {
			tid := ti + 1
			meta = append(meta, chromeEvent{
				Name: "thread_name", Ph: "M", PID: pid, TID: tid,
				Args: map[string]any{"name": tr.Name},
			})
			for _, e := range tr.Events {
				ce := chromeEvent{Name: e.Name, Ts: e.Start, PID: pid, TID: tid}
				switch e.Kind {
				case KindSpan:
					ce.Ph = "X"
					ce.Dur = e.Dur
				case KindInstant:
					ce.Ph = "i"
					ce.S = "t"
				case KindCounter:
					ce.Ph = "C"
					ce.Args = map[string]any{"value": e.Value}
				}
				out = append(out, ce)
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(append(out, meta...))
}
