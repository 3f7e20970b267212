package sched

import (
	"time"

	"cohort"
	"cohort/internal/wire"
)

// This file is the serving stack's latency attribution layer: every block a
// session serves crosses the same stage boundaries — wire ingress, input
// queue, scheduler dispatch, engine compute, output queue, wire egress — and
// on a sampled 1-in-LatencySample basis the scheduler stamps those
// boundaries with monotonic clock reads and files the deltas into per-stage
// log2 histograms. The decomposition mirrors the Fig. 8 critical-path
// categories the offline cohorttrace view computes (producer wait → queue,
// scheduling → sched, rcm/compute → compute, drain/publish → wire), so the
// lifetime row of /stats/windows and a recorded trace agree on where the
// microseconds go.
//
// Stage semantics (all server-side; network transit is the client's to
// measure by subtraction):
//
//	queue    head-of-batch wait in the session input queue: from the first
//	         un-dispatched Data frame landing in the queue (stamped by the
//	         socket reader) to the scheduler dispatching the session.
//	sched    dispatch to compute: the pick-to-process gap, including the
//	         quantum's staging copy.
//	compute  the accelerator Process loop over the quantum's blocks,
//	         including any transient-fault retries.
//	wire     results published to the output queue until the socket pump
//	         has handed the coalesced Data frame to the kernel.
//
// The stamps live off the zero-alloc hot path's critical sections: unsampled
// quanta cost one atomic store (clearing the ingress stamp); sampled quanta
// pay four time.Now calls for a whole quantum of blocks. Nothing allocates —
// TestServeSteadyStateAllocs runs with sampling enabled.

// Stage names, in pipeline order — the keys of every exported breakdown.
const (
	StageQueue   = "queue"
	StageSched   = "sched"
	StageCompute = "compute"
	StageWire    = "wire"
)

// stageSet is one scope's four stage accumulators (per session, and
// aggregated per tenant for the lifetime of the scheduler).
type stageSet struct {
	queue   cohort.LatencyRecorder
	sched   cohort.LatencyRecorder
	compute cohort.LatencyRecorder
	wire    cohort.LatencyRecorder
}

// StageTotal is one stage's cumulative record: its log2 histogram and the
// exact sum of its samples in nanoseconds.
type StageTotal struct {
	Histo cohort.LatencyHistogram
	SumNs uint64
}

// StageTotals is a snapshot of one scope's four stage records, in pipeline
// order. Every latency view summarizes one through Since.
type StageTotals struct {
	Queue, Sched, Compute, Wire StageTotal
}

// totals snapshots the set.
func (sl *stageSet) totals() StageTotals {
	return StageTotals{
		Queue:   stageTotal(&sl.queue),
		Sched:   stageTotal(&sl.sched),
		Compute: stageTotal(&sl.compute),
		Wire:    stageTotal(&sl.wire),
	}
}

func stageTotal(r *cohort.LatencyRecorder) StageTotal {
	return StageTotal{Histo: r.Snapshot(), SumNs: r.SumNs()}
}

// Since summarizes what the stages recorded after base, an earlier snapshot
// of the same scope: a window is Since(the window's first snapshot), a
// lifetime view is Since(StageTotals{}). A bucket or sum that went
// backwards (a restarted source) counts as 0.
func (t StageTotals) Since(base StageTotals) wire.Stages {
	return wire.Stages{
		Queue:   t.Queue.since(base.Queue),
		Sched:   t.Sched.since(base.Sched),
		Compute: t.Compute.since(base.Compute),
		Wire:    t.Wire.since(base.Wire),
	}
}

// since is one stage's share of Since: sample count, exact mean, and
// interpolated log2-bucket quantiles of the bucket-wise difference.
func (t StageTotal) since(base StageTotal) wire.StageTiming {
	var h cohort.LatencyHistogram
	for i, c := range t.Histo.Buckets {
		if b := base.Histo.Buckets[i]; c > b {
			h.Buckets[i] = c - b
		}
	}
	n := h.Samples()
	if n == 0 {
		return wire.StageTiming{}
	}
	var sum uint64
	if t.SumNs > base.SumNs {
		sum = t.SumNs - base.SumNs
	}
	return wire.StageTiming{
		Samples: n,
		MeanNs:  float64(sum) / float64(n),
		P50Ns:   h.Quantile(0.5),
		P95Ns:   h.Quantile(0.95),
		P99Ns:   h.Quantile(0.99),
	}
}

// Telemetry renders the session's whole-life stage summary as the wire
// timing document: DoneReply.Timing for a session that opted in
// (OpenRequest.Timing).
func (ss *Session) Telemetry() wire.TelemetryReply {
	return wire.TelemetryReply{Session: ss.id, Stages: ss.lat.totals().Since(StageTotals{})}
}

// observeStage files one stage delta into both the session's own set and its
// tenant's persistent aggregate.
func (ss *Session) observeStage(stage string, d time.Duration) {
	if d < 0 {
		d = 0
	}
	ns := uint64(d)
	switch stage {
	case StageQueue:
		ss.lat.queue.Observe(ns)
		ss.ten.stages.queue.Observe(ns)
	case StageSched:
		ss.lat.sched.Observe(ns)
		ss.ten.stages.sched.Observe(ns)
	case StageCompute:
		ss.lat.compute.Observe(ns)
		ss.ten.stages.compute.Observe(ns)
	case StageWire:
		ss.lat.wire.Observe(ns)
		ss.ten.stages.wire.Observe(ns)
	}
}

// markIngress stamps the arrival of un-dispatched input: the socket reader
// (or a local producer wrapper) calls it after pushing words into the session
// input queue. Only the first push since the last dispatch writes — the stamp
// tracks the head of the waiting batch.
func (ss *Session) markIngress() {
	if ss.ingressNs.Load() == 0 {
		ss.ingressNs.Store(uint64(time.Now().UnixNano()))
	}
}

// takeIngress consumes the ingress stamp at dispatch: it returns the stamp
// (0 when no push has landed since the last dispatch) and clears it so the
// next push restarts the head-of-batch clock.
func (ss *Session) takeIngress() uint64 { return ss.ingressNs.Swap(0) }

// markEgress stamps the publication moment of a sampled quantum's results;
// the socket pump consumes it when the coalesced frame reaches the kernel.
// Unsampled quanta never stamp, so the pump records at the quantum sampling
// rate with no bookkeeping of its own.
func (ss *Session) markEgress(t time.Time) {
	ss.egressNs.Store(uint64(t.UnixNano()))
}

// takeEgress consumes the egress stamp after a socket write; 0 means the
// written words came from an unsampled quantum.
func (ss *Session) takeEgress() uint64 { return ss.egressNs.Swap(0) }

// observeWire files the egress→kernel delta for a completed socket write, if
// the drained words carry a sampled-quantum stamp. Called by the result pump
// (and by any local consumer standing in for one).
func (ss *Session) observeWire() {
	if st := ss.takeEgress(); st != 0 {
		ss.observeStage(StageWire, time.Duration(time.Now().UnixNano()-int64(st)))
	}
}
