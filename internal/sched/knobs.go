package sched

import (
	"cohort/internal/wire"
)

// This file is the scheduler's live-retuning surface: the per-session knobs
// an online controller (internal/policy) adjusts while sessions serve. Every
// knob was a static Config or wire constant before — quantum fixed at daemon
// start, frame coalescing capped only by wire.MaxFrameWords, no flush floor
// at all. Retuning is deliberately boundary-aligned: a new quantum takes
// effect at the *next* scheduling decision, never inside one, so the stride
// accounting in finishServe always charges a session's virtual time with the
// same quantum the dispatch used and the fairness invariants (weighted
// shares, no starvation) are untouched by a retune racing the serve loop
// (see DESIGN.md, "Retuning at quantum boundaries").
//
// Storage is three atomics on the Session; a zero value means "scheduler
// default", so untuned sessions cost exactly one atomic load per quantum
// (and two per pump pass) over the pre-knob hot path — nothing allocates.

// maxTunedQuantum bounds a retuned quantum: generous headroom over any sane
// arm grid while keeping a runaway controller from requesting gigabyte
// staging buffers (buf grows to quantum*InWords on first use).
const maxTunedQuantum = 4096

// Knobs is one retune request — the per-session scheduler parameters the
// adaptive controller owns. Field semantics: > 0 sets the knob (clamped to
// its valid range), 0 leaves it unchanged, < 0 resets it to the scheduler
// default. The zero value is a no-op.
type Knobs struct {
	// Quantum is the session's blocks-per-scheduling-decision override
	// (Config.Quantum when unset). Applied at the next quantum boundary.
	Quantum int `json:"quantum,omitempty"`
	// CoalesceWords caps how many result words the socket pump packs into
	// one outbound Data frame (wire.MaxFrameWords when unset). Smaller
	// frames flush earlier — a latency knob; larger frames amortize the
	// writev — a throughput knob.
	CoalesceWords int `json:"coalesce_words,omitempty"`
	// BatchWords is the pump's flush floor: with fewer than this many result
	// words queued the pump waits one publication (for at most 2ms) for
	// more to coalesce before framing. 0/unset means no
	// floor — every publication flushes immediately, the pre-knob behavior.
	BatchWords int `json:"batch_words,omitempty"`
}

// merge folds one retune request into an existing knob set using the
// set/keep/reset field semantics, returning the result.
func (k Knobs) merge(req Knobs) Knobs {
	apply := func(cur *int, v int) {
		switch {
		case v > 0:
			*cur = v
		case v < 0:
			*cur = 0
		}
	}
	apply(&k.Quantum, req.Quantum)
	apply(&k.CoalesceWords, req.CoalesceWords)
	apply(&k.BatchWords, req.BatchWords)
	return k
}

// applyKnobs installs a retune request on the session. Quantum is clamped to
// [1, maxTunedQuantum]; CoalesceWords to [one output block, MaxFrameWords]
// so a frame can always carry at least one complete block; BatchWords to
// [0, MaxFrameWords] (the pump additionally clamps the floor to the live
// coalesce cap on every pass, so the two can be retuned independently in
// either order without a stall window).
func (ss *Session) applyKnobs(k Knobs) {
	if k.Quantum != 0 {
		q := k.Quantum
		if q > maxTunedQuantum {
			q = maxTunedQuantum
		}
		if q < 0 {
			q = 0 // reset to scheduler default
		}
		ss.tunedQuantum.Store(int32(q))
	}
	if k.CoalesceWords != 0 {
		c := k.CoalesceWords
		if c > wire.MaxFrameWords {
			c = wire.MaxFrameWords
		}
		if c > 0 && c < ss.outW {
			c = ss.outW
		}
		if c < 0 {
			c = 0
		}
		ss.tunedCoalesce.Store(int32(c))
	}
	if k.BatchWords != 0 {
		b := k.BatchWords
		if b > wire.MaxFrameWords {
			b = wire.MaxFrameWords
		}
		if b < 0 {
			b = 0
		}
		ss.tunedBatch.Store(int32(b))
	}
}

// Knobs snapshots the session's current overrides (zero fields mean the
// scheduler default is in effect) — the /sessions "tuned" column.
func (ss *Session) Knobs() Knobs {
	return Knobs{
		Quantum:       int(ss.tunedQuantum.Load()),
		CoalesceWords: int(ss.tunedCoalesce.Load()),
		BatchWords:    int(ss.tunedBatch.Load()),
	}
}

// effQuantum returns the quantum the next scheduling decision should use:
// the tuned override when set, def (Config.Quantum) otherwise. Read once at
// the top of serveQuantum — the quantum boundary — so a concurrent Retune
// never changes the clamp mid-decision.
func (ss *Session) effQuantum(def int) int {
	if q := int(ss.tunedQuantum.Load()); q > 0 {
		return q
	}
	return def
}

// coalesceCap returns the pump's per-frame word cap.
func (ss *Session) coalesceCap() int {
	if c := int(ss.tunedCoalesce.Load()); c > 0 {
		return c
	}
	return wire.MaxFrameWords
}

// batchFloor returns the pump's flush floor, never above the coalesce cap
// (a floor the cap forbids reaching would park the pump for its full 2ms
// bound on every frame).
func (ss *Session) batchFloor(coalesce int) int {
	b := int(ss.tunedBatch.Load())
	if b > coalesce {
		b = coalesce
	}
	return b
}

// Retune applies a knob request to the live session with the given id —
// quantum at the next quantum boundary, coalesce/batch on the pump's next
// pass. Reports whether a session with that id was live. Safe from any
// goroutine.
func (s *Scheduler) Retune(id uint64, k Knobs) bool {
	s.mu.Lock()
	ss := s.sessions[id]
	s.mu.Unlock()
	if ss == nil {
		return false
	}
	ss.applyKnobs(k)
	s.retunes.Add(1)
	return true
}

// RetuneAll applies a knob request to every live session and records it as
// the admission default for sessions that open later, so one controller
// decision covers the current fleet and its successors. Returns how many
// live sessions were retuned.
func (s *Scheduler) RetuneAll(k Knobs) int {
	s.mu.Lock()
	s.admitKnobs = s.admitKnobs.merge(k)
	live := make([]*Session, 0, len(s.sessions))
	for _, ss := range s.sessions {
		live = append(live, ss)
	}
	s.mu.Unlock()
	for _, ss := range live {
		ss.applyKnobs(k)
	}
	if n := len(live); n > 0 {
		s.retunes.Add(uint64(n))
	}
	return len(live)
}

// AdmitKnobs snapshots the knob set newly admitted sessions inherit.
func (s *Scheduler) AdmitKnobs() Knobs {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.admitKnobs
}
