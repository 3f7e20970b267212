package telem

import (
	"log/slog"
	"sync"
	"time"
)

// This file is the serving stack's structured event plane: a fixed-memory
// ring of state transitions — SLO breaches and recoveries, session kills,
// terminal faults, watchdog stalls, admission rejections — with monotone
// sequence numbers for since-cursor pagination over /events, mirrored to
// slog so the same transition appears in the process log and the queryable
// ring. Counters and histograms say *how much*; the event log says *what
// happened, in what order* — the causal record an operator replays after an
// incident.

// The event types this package and cohortd's watchdog emit. Every other
// spelling lives in the package that emits it: internal/sched's session and
// drain events, internal/cluster's shard health transitions.
const (
	EventSLOBreach       = "slo_breach"
	EventSLORecovery     = "slo_recovery"
	EventWatchdogStall   = "watchdog_stall"
	EventWatchdogRecover = "watchdog_recover"
)

// Event is one structured entry in the event log. Seq is assigned at append
// time and strictly increases from 1; it is the /events pagination cursor.
type Event struct {
	Seq     uint64    `json:"seq"`
	Time    time.Time `json:"time"`
	Type    string    `json:"type"`
	Tenant  string    `json:"tenant,omitempty"`
	Session uint64    `json:"session,omitempty"`
	Detail  string    `json:"detail,omitempty"`
}

// Page is one /events response: the events after the request cursor (oldest
// first, at most the requested max), the cursor to pass next, and how many
// events the ring had already overwritten past the request cursor.
type Page struct {
	Next    uint64  `json:"next"`
	Dropped uint64  `json:"dropped,omitempty"`
	Events  []Event `json:"events"`
}

// Log is the fixed-memory event ring. Appends never block and never grow
// memory: once the ring wraps, the oldest events are overwritten and readers
// paging from a stale cursor see a Dropped count instead. Safe for
// concurrent use. Implements the sched.EventSink interface via Emit.
type Log struct {
	logger *slog.Logger

	mu   sync.Mutex
	ring []Event
	seq  uint64 // seq of the most recently appended event (0 = none yet)
}

// NewLog returns a ring holding the last `capacity` events (floor 16).
// When logger is non-nil every appended event is mirrored to it — Warn for
// damage (breach, fault, kill, stall, rejection), Info for recoveries.
func NewLog(capacity int, logger *slog.Logger) *Log {
	if capacity < 16 {
		capacity = 16
	}
	return &Log{ring: make([]Event, capacity), logger: logger}
}

// Emit appends one event built from its parts — the signature shared with
// sched.EventSink so a *Log plugs straight into sched.Config.Events.
func (l *Log) Emit(typ, tenant string, session uint64, detail string) {
	l.Append(Event{Type: typ, Tenant: tenant, Session: session, Detail: detail})
}

// Append stamps ev (Seq, and Time when unset) and files it in the ring.
func (l *Log) Append(ev Event) {
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	l.mu.Lock()
	l.seq++
	ev.Seq = l.seq
	l.ring[(l.seq-1)%uint64(len(l.ring))] = ev
	l.mu.Unlock()
	if l.logger != nil {
		fn := l.logger.Warn
		if ev.Type == EventSLORecovery || ev.Type == EventWatchdogRecover {
			fn = l.logger.Info
		}
		fn("event", "type", ev.Type, "seq", ev.Seq,
			"tenant", ev.Tenant, "session", ev.Session, "detail", ev.Detail)
	}
}

// Since returns up to max events with Seq > cursor, oldest first, plus the
// cursor to resume from and how many matching events the ring had already
// overwritten. max <= 0 means "all available". Pass next back as the cursor
// of the following call to tail the log without missing or repeating events
// (Dropped > 0 is the only loss signal).
func (l *Log) Since(cursor uint64, max int) (events []Event, next uint64, dropped uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	next = cursor
	if l.seq == 0 || cursor >= l.seq {
		return nil, cursor, 0
	}
	oldest := uint64(1)
	if n := uint64(len(l.ring)); l.seq > n {
		oldest = l.seq - n + 1
	}
	first := cursor + 1
	if first < oldest {
		dropped = oldest - first
		first = oldest
	}
	count := int(l.seq - first + 1)
	if max > 0 && count > max {
		count = max
	}
	events = make([]Event, 0, count)
	for s := first; s < first+uint64(count); s++ {
		events = append(events, l.ring[(s-1)%uint64(len(l.ring))])
	}
	return events, first + uint64(count) - 1, dropped
}

// PageSince is Since packaged as the /events JSON document.
func (l *Log) PageSince(cursor uint64, max int) Page {
	events, next, dropped := l.Since(cursor, max)
	if events == nil {
		events = []Event{} // render as [] rather than null
	}
	return Page{Next: next, Dropped: dropped, Events: events}
}
