package cohort

import (
	"io"
	"sync"
	"sync/atomic"

	"cohort/internal/trace"
)

// FlightRecorder is the native runtime's trace recorder: always-on,
// fixed-memory tracing for long-running services. Engines attached with
// WithFlightRecorder emit an idle span per park, a drain span per wakeup, a
// compute span per block and a publish span per output publication onto
// per-engine tracks, stamped in microseconds since the recorder was created.
// Each track is a bounded ring that keeps only the most recent events: memory
// never grows, so the recorder can stay enabled for the life of the process.
//
// The ring can be snapshotted at any moment (WriteChrome), and it dumps
// itself automatically when something goes wrong: an engine parking with a
// terminal accelerator error triggers AutoDump, as does a Watchdog-detected
// stall — giving a Perfetto-loadable view of the last moments before the
// failure. Wire the dump destination with SetAutoDump.
//
// Safe for concurrent use by any number of engines; writes take only the
// written track's own mutex.
type FlightRecorder struct {
	rec   *trace.Recorder
	dumps atomic.Uint64

	mu     sync.Mutex
	sink   io.Writer
	onDump func(reason string)
}

// NewFlightRecorder creates a flight recorder keeping the last
// perTrackEvents events of every track (values below 1 are raised to 1).
// Its clock starts now, in wall-clock microseconds.
func NewFlightRecorder(perTrackEvents int) *FlightRecorder {
	return &FlightRecorder{rec: trace.NewWall(max(perTrackEvents, 1))}
}

// Track returns a named track for application-side annotations (instants and
// spans around Push/Pop calls, for example), created on first use. Tracks are
// safe for concurrent writers.
func (f *FlightRecorder) Track(name string) *TraceTrack {
	return &TraceTrack{trk: f.rec.Track(name), rec: f.rec}
}

// TraceTrack is an application-facing track handle on a FlightRecorder.
type TraceTrack struct {
	trk *trace.Track
	rec *trace.Recorder
}

// Instant marks a point event now.
func (t *TraceTrack) Instant(name string) { t.trk.Instant(name) }

// Begin starts a span; pass the returned start time to End.
func (t *TraceTrack) Begin() uint64 { return t.rec.Now() }

// End completes a span opened with Begin.
func (t *TraceTrack) End(name string, start uint64) { t.trk.Span(name, start) }

// Counter records a named value sample (rendered as a counter track).
func (t *TraceTrack) Counter(name string, v int64) { t.trk.Counter(name, v) }

// WriteChrome writes the ring contents — the last N events of every track,
// oldest first — as Chrome trace-event JSON under the given process name.
// Safe to call at any time, including while engines are running.
func (f *FlightRecorder) WriteChrome(w io.Writer, process string) error {
	return trace.WriteChrome(w, f.rec.Snapshot(process))
}

// SetAutoDump wires the automatic failure dump: when an attached engine
// parks with a terminal error (or AutoDump is called explicitly, e.g. by a
// Watchdog), the ring is serialized as Chrome trace JSON to w and then
// onDump, if non-nil, is invoked with a human-readable reason. Either
// argument may be nil to skip that half. w must be safe for a single
// serialized write at arbitrary times (an os.File is fine).
func (f *FlightRecorder) SetAutoDump(w io.Writer, onDump func(reason string)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sink = w
	f.onDump = onDump
}

// AutoDump snapshots the ring to the configured sink, labelling the trace's
// process with reason, and invokes the configured callback. Dumps are
// serialized; errors writing to the sink are ignored (the process is already
// failing — the dump is best-effort).
func (f *FlightRecorder) AutoDump(reason string) {
	f.dumps.Add(1)
	f.mu.Lock()
	sink, onDump := f.sink, f.onDump
	if sink != nil {
		_ = trace.WriteChrome(sink, f.rec.Snapshot("flight: "+reason))
	}
	f.mu.Unlock()
	if onDump != nil {
		onDump(reason)
	}
}

// Dumps returns how many automatic (or explicit) dumps have fired.
func (f *FlightRecorder) Dumps() uint64 { return f.dumps.Load() }
