package sched

import (
	"cohort/internal/wire"
)

// This file is the scheduler's live-retuning surface: the two knobs an
// online controller (internal/policy) adjusts while sessions serve. They are
// scheduler-wide — one decision covers every live session and every later
// one — and stored once, as two atomics on the Scheduler. Retuning is
// boundary-aligned: serveQuantum reads the quantum once at its top, so a new
// quantum takes effect at the *next* scheduling decision, never inside one,
// and the stride accounting in finishServe always charges the blocks the
// dispatch actually served (see DESIGN.md, "Retuning at quantum
// boundaries"). The result pump reads the coalesce cap once per pass.

// maxTunedQuantum bounds a retuned quantum: generous headroom over any sane
// arm grid while keeping a runaway controller from requesting gigabyte
// staging buffers (a session's buf grows to quantum*InWords on first use).
const maxTunedQuantum = 4096

// Knobs is one retune request: the full knob pair the adaptive controller
// owns. A field <= 0 restores its default.
type Knobs struct {
	// Quantum is the blocks-per-scheduling-decision cap (Config.Quantum by
	// default), clamped to maxTunedQuantum. Applied at the next quantum
	// boundary.
	Quantum int
	// CoalesceWords caps how many result words the socket pump packs into
	// one outbound Data frame (wire.MaxFrameWords by default, and never
	// above it). Smaller frames flush earlier — a latency knob; larger
	// frames amortize the writev — a throughput knob.
	CoalesceWords int
}

// Retune installs k for every live session and every later one — the
// quantum at each session's next quantum boundary, the coalesce cap on each
// pump's next pass. Safe from any goroutine.
func (s *Scheduler) Retune(k Knobs) {
	q := k.Quantum
	if q <= 0 {
		q = s.cfg.Quantum
	} else if q > maxTunedQuantum {
		q = maxTunedQuantum
	}
	c := k.CoalesceWords
	if c <= 0 || c > wire.MaxFrameWords {
		c = wire.MaxFrameWords
	}
	s.quantum.Store(int32(q))
	s.coalesce.Store(int32(c))
	s.retunes.Add(1)
}

// coalesceCap returns the pump's per-frame word cap, raised to one output
// block so a frame always carries at least one complete block.
func (ss *Session) coalesceCap() int {
	return max(int(ss.sch.coalesce.Load()), ss.outW)
}
