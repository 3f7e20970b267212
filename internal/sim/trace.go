package sim

import (
	"fmt"
	"io"

	"cohort/internal/trace"
)

// Tracing records what every simulated process was doing and when, plus
// component-emitted spans, instants and counters, and exports the timeline in
// the Chrome trace-event format (load it at chrome://tracing or
// https://ui.perfetto.dev to see cores, endpoints, accelerators, NoC links,
// directory banks and DMA engines laid out against the cycle axis). The
// recorder is internal/trace's, clocked by the kernel's cycle counter and
// unbounded, because the whole timeline is the product; the native runtime's
// flight recorder is the same recorder in wall-clock time with a bounded ring
// per track. Tracing is off by default and costs nothing until enabled:
// components pass precomputed track-name strings (never formatting at the
// call site) and every Trace* method returns immediately when disabled.

// EnableTracing starts recording process run-spans and component events.
func (k *Kernel) EnableTracing() {
	if k.tr == nil {
		k.tr = trace.New(func() uint64 { return k.now }, 0)
	}
}

// TracingEnabled reports whether tracing is on.
func (k *Kernel) TracingEnabled() bool { return k.tr != nil }

// TraceInstant records a zero-duration marker on the named track (no-op when
// tracing is off). Components use this for protocol-level moments: an RCM
// wakeup, a page-fault IRQ, a DMA kick.
func (k *Kernel) TraceInstant(track, name string) {
	if k.tr == nil {
		return
	}
	k.tr.Track(track).Instant(name)
}

// TraceSpan records a duration from start (a cycle count previously read via
// Now) to the current cycle on the named track. No-op when tracing is off.
func (k *Kernel) TraceSpan(track, name string, start Time) {
	if k.tr == nil {
		return
	}
	k.tr.Track(track).Span(name, start)
}

// TraceSpanAt records a span with explicit bounds — for extents known up
// front, possibly in the simulated future (e.g. a NoC link's occupancy).
func (k *Kernel) TraceSpanAt(track, name string, start, dur Time) {
	if k.tr == nil {
		return
	}
	k.tr.Track(track).SpanAt(name, start, dur)
}

// TraceCounter samples a value on the named track (rendered as a staircase
// counter by the viewer) — queue depths, directory occupancy.
func (k *Kernel) TraceCounter(track, name string, v int64) {
	if k.tr == nil {
		return
	}
	k.tr.Track(track).Counter(name, v)
}

// TraceSnapshot copies the recorded timeline under a process label, for
// merging several simulations into one trace file (trace.WriteChrome).
func (k *Kernel) TraceSnapshot(process string) (trace.Snapshot, bool) {
	if k.tr == nil {
		return trace.Snapshot{}, false
	}
	return k.tr.Snapshot(process), true
}

// busy records a process's nonzero Wait as an occupancy span on its track.
func (k *Kernel) busy(p *Proc, d Time) {
	if k.tr == nil || d == 0 {
		return
	}
	k.tr.Track(p.name).SpanAt(p.name, k.now, d)
}

// WriteChromeTrace serializes the recorded timeline as a Chrome trace-event
// JSON array. Cycle timestamps are written as microseconds (1 cycle = 1 µs
// on the viewer's axis).
func (k *Kernel) WriteChromeTrace(w io.Writer) error {
	if k.tr == nil {
		return fmt.Errorf("sim: tracing was never enabled")
	}
	return trace.WriteChrome(w, k.tr.Snapshot("sim"))
}
