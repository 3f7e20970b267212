package sched

import (
	"sync/atomic"

	"cohort"
)

// This file is the scheduler's side of the structured event plane and its
// per-tenant accounting record. A tenant's record accumulates across its
// whole session history; Totals snapshots it (the windowed sampler in
// internal/telem reads those snapshots), and it is the tenant's one metric
// source, "tenant/<name>", unregistered only when the scheduler closes. A
// consumer deriving per-tenant rates from either never sees a cumulative
// counter jump backwards at a session retirement. Per-session counters are
// served by Sessions (/sessions) only.

// EventSink receives the scheduler's state-transition events: session kills,
// terminal accelerator faults, admission rejections. *telem.Log satisfies it;
// the interface lives here so sched does not import the telemetry layer.
type EventSink interface {
	Emit(typ, tenant string, session uint64, detail string)
}

// Event type spellings; internal/sched is the only package that emits them.
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
	name      string
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

// TenantTotals is a snapshot of one tenant's record: its eight lifetime
// counters and its four stage records. It is comparable, so a consumer can
// tell an unchanged tenant from a changed one.
type TenantTotals struct {
	Tenant         string
	Blocks         uint64 // accelerator blocks completed
	WordsIn        uint64 // words consumed from the tenant's input queues
	WordsOut       uint64 // words produced into its output queues
	Retries        uint64 // transient-fault retry attempts
	Recovered      uint64 // blocks that completed after one or more retries
	TerminalFaults uint64 // sessions retired by a terminal accelerator fault
	Kills          uint64 // sessions retired by Kill
	Rejected       uint64 // registrations refused by admission control
	Stages         StageTotals
}

func (t *tenant) totals() TenantTotals {
	return TenantTotals{
		Tenant:         t.name,
		Blocks:         t.blocks.Load(),
		WordsIn:        t.wordsIn.Load(),
		WordsOut:       t.wordsOut.Load(),
		Retries:        t.retries.Load(),
		Recovered:      t.recovered.Load(),
		TerminalFaults: t.terminal.Load(),
		Kills:          t.kills.Load(),
		Rejected:       t.rejected.Load(),
		Stages:         t.stages.totals(),
	}
}

// metrics renders the tenant's "tenant/<name>" registry source.
func (t *tenant) metrics() []cohort.Metric {
	tt := t.totals()
	st := &tt.Stages
	return append(cohort.FieldMetrics(tt), // the eight counters, in field order
		cohort.Metric{Name: "stage_queue_ns", Histo: &st.Queue.Histo},
		cohort.Metric{Name: "stage_sched_ns", Histo: &st.Sched.Histo},
		cohort.Metric{Name: "stage_compute_ns", Histo: &st.Compute.Histo},
		cohort.Metric{Name: "stage_wire_ns", Histo: &st.Wire.Histo})
}

// tenantLocked returns (creating on first use, admitted or rejected) the
// tenant's record and registers its "tenant/<name>" source. Caller holds
// s.mu. Lock order is s.mu → Registry.mu only; registry snapshots poll
// sources outside the registry lock, so there is no inversion.
func (s *Scheduler) tenantLocked(name string) *tenant {
	if t, ok := s.tenants[name]; ok {
		return t
	}
	t := &tenant{name: name}
	s.tenants[name] = t
	if reg := s.cfg.Registry; reg != nil {
		reg.RegisterLabeled("tenant/"+name,
			[]cohort.Label{{Key: "tenant", Value: name}}, t.metrics)
	}
	return t
}
