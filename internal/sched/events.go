package sched

import (
	"sync/atomic"

	"cohort"
)

// This file is the scheduler's side of the structured event plane and its
// per-tenant accounting record. A tenant's record accumulates across its
// whole session history and is the tenant's one metric source,
// "tenant/<name>", unregistered only when the scheduler closes: a registry
// consumer deriving per-tenant rates from it (internal/telem, or Prometheus)
// never sees a cumulative counter jump backwards at a session retirement.
// Per-session counters are served by Sessions (/sessions) only.

// EventSink receives the scheduler's state-transition events: session kills,
// terminal accelerator faults, admission rejections. *telem.Log satisfies it;
// the interface lives here so sched does not import the telemetry layer.
type EventSink interface {
	Emit(typ, tenant string, session uint64, detail string)
}

// Event type spellings, matching internal/telem's canonical constants.
const (
	eventSessionKill     = "session_kill"
	eventTerminalFault   = "terminal_fault"
	eventAdmissionReject = "admission_reject"
	eventDrain           = "drain"
)

// emit forwards one transition to the configured sink, if any. Only failure
// paths call it, so the detail strings may allocate.
func (s *Scheduler) emit(typ, tenant string, session uint64, detail string) {
	if s.cfg.Events != nil {
		s.cfg.Events.Emit(typ, tenant, session, detail)
	}
}

// tenant is one tenant's lifetime accounting: its serving and fault counters
// and its four stage recorders, accumulated across session churn. The
// counters are atomics bumped from the serving hot path next to the
// session's own (nothing allocated), so the record stays exact without a
// retirement hand-off step. The scheduler-wide fault and admission totals
// are sums over these records.
type tenant struct {
	blocks    atomic.Uint64
	wordsIn   atomic.Uint64
	wordsOut  atomic.Uint64
	retries   atomic.Uint64
	recovered atomic.Uint64
	terminal  atomic.Uint64
	kills     atomic.Uint64
	rejected  atomic.Uint64
	stages    stageSet
}

func (t *tenant) metrics() []cohort.Metric {
	return append([]cohort.Metric{
		{Name: "blocks", Value: t.blocks.Load()},
		{Name: "words_in", Value: t.wordsIn.Load()},
		{Name: "words_out", Value: t.wordsOut.Load()},
		{Name: "retries", Value: t.retries.Load()},
		{Name: "recovered", Value: t.recovered.Load()},
		{Name: "terminal_faults", Value: t.terminal.Load()},
		{Name: "kills", Value: t.kills.Load()},
		{Name: "rejected", Value: t.rejected.Load()},
	}, t.stages.metrics()...)
}

// tenantLocked returns (creating on first use, admitted or rejected) the
// tenant's record and registers its "tenant/<name>" source. Caller holds
// s.mu. Lock order is s.mu → Registry.mu only; registry snapshots poll
// sources outside the registry lock, so there is no inversion.
func (s *Scheduler) tenantLocked(name string) *tenant {
	if t, ok := s.tenants[name]; ok {
		return t
	}
	t := &tenant{}
	s.tenants[name] = t
	if reg := s.cfg.Registry; reg != nil {
		reg.RegisterLabeled("tenant/"+name,
			[]cohort.Label{{Key: "tenant", Value: name}}, t.metrics)
	}
	return t
}
