// Package tracestat analyses Chrome trace-event JSON files produced by the
// Cohort runtimes (internal/trace.WriteChrome, sim.Kernel.WriteChromeTrace).
// It rebuilds the per-process/per-track timeline model from the flat event
// array, then derives the numbers a performance investigation needs:
// per-track utilization, span duration statistics with exact quantiles, and
// the producer → invalidate → drain critical-path decomposition of the
// paper's Fig. 8 latency breakdown.
//
// Timestamps are kept in the recorder's native unit ("u"): the simulator
// records cycles, the native runtime microseconds. The analysis is
// unit-agnostic; only the interpretation differs.
package tracestat

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Span is one duration event on a track.
type Span struct {
	Name  string
	Start uint64
	Dur   uint64
}

// Instant is one zero-duration marker.
type Instant struct {
	Name string
	Ts   uint64
}

// Sample is one counter observation.
type Sample struct {
	Name  string
	Ts    uint64
	Value int64
}

// Track is one rebuilt timeline: all events that shared a (pid, tid).
type Track struct {
	Process string // process_name metadata, or "pid<N>"
	Name    string // thread_name metadata, or "tid<N>"

	Spans    []Span
	Instants []Instant
	Samples  []Sample
}

// Trace is the rebuilt model of one trace file.
type Trace struct {
	Tracks []*Track
}

// rawEvent is the trace-event JSON wire format (the subset we consume).
type rawEvent struct {
	Name string          `json:"name"`
	Ph   string          `json:"ph"`
	Ts   uint64          `json:"ts"`
	Dur  uint64          `json:"dur"`
	PID  int             `json:"pid"`
	TID  int             `json:"tid"`
	Args json.RawMessage `json:"args"`
}

// Parse reads a Chrome trace-event JSON document: either a bare event array
// or the object form {"traceEvents": [...]}. Metadata events (ph "M") are
// resolved into process and track names; data events are grouped per
// (pid, tid) in file order.
func Parse(r io.Reader) (*Trace, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var events []rawEvent
	if err := json.Unmarshal(raw, &events); err != nil {
		var doc struct {
			TraceEvents []rawEvent `json:"traceEvents"`
		}
		if err2 := json.Unmarshal(raw, &doc); err2 != nil {
			return nil, fmt.Errorf("tracestat: not a trace-event array or object: %w", err)
		}
		events = doc.TraceEvents
	}

	type key struct{ pid, tid int }
	tracks := make(map[key]*Track)
	var order []key
	procName := make(map[int]string)
	threadName := make(map[key]string)

	track := func(k key) *Track {
		t := tracks[k]
		if t == nil {
			t = &Track{}
			tracks[k] = t
			order = append(order, k)
		}
		return t
	}

	for _, e := range events {
		k := key{e.PID, e.TID}
		switch e.Ph {
		case "M":
			var args struct {
				Name string `json:"name"`
			}
			if e.Args != nil {
				json.Unmarshal(e.Args, &args) //nolint:errcheck // missing name falls back below
			}
			switch e.Name {
			case "process_name":
				procName[e.PID] = args.Name
			case "thread_name":
				threadName[k] = args.Name
			}
		case "X":
			track(k).Spans = append(track(k).Spans, Span{Name: e.Name, Start: e.Ts, Dur: e.Dur})
		case "i", "I", "R": // instant variants across trace generations
			track(k).Instants = append(track(k).Instants, Instant{Name: e.Name, Ts: e.Ts})
		case "C":
			var args struct {
				Value *int64 `json:"value"`
			}
			if e.Args != nil {
				json.Unmarshal(e.Args, &args) //nolint:errcheck // absent value recorded as 0
			}
			var v int64
			if args.Value != nil {
				v = *args.Value
			}
			track(k).Samples = append(track(k).Samples, Sample{Name: e.Name, Ts: e.Ts, Value: v})
		}
	}

	tr := &Trace{}
	for _, k := range order {
		t := tracks[k]
		t.Process = procName[k.pid]
		if t.Process == "" {
			t.Process = fmt.Sprintf("pid%d", k.pid)
		}
		t.Name = threadName[k]
		if t.Name == "" {
			t.Name = fmt.Sprintf("tid%d", k.tid)
		}
		tr.Tracks = append(tr.Tracks, t)
	}
	return tr, nil
}

// Extent returns the trace's [start, end] bounds over all events, and ok =
// false when the trace holds no data events.
func (t *Trace) Extent() (start, end uint64, ok bool) {
	start = math.MaxUint64
	for _, tr := range t.Tracks {
		for _, s := range tr.Spans {
			start, end, ok = min(start, s.Start), max(end, s.Start+s.Dur), true
		}
		for _, i := range tr.Instants {
			start, end, ok = min(start, i.Ts), max(end, i.Ts), true
		}
		for _, c := range tr.Samples {
			start, end, ok = min(start, c.Ts), max(end, c.Ts), true
		}
	}
	if !ok {
		return 0, 0, false
	}
	return start, end, true
}

// SpanStat aggregates every span sharing one name, across all tracks.
// Quantiles are exact over the recorded durations (see Quantile).
type SpanStat struct {
	Name  string
	Count int
	Total uint64
	Min   uint64
	Max   uint64
	P50   float64
	P95   float64
	P99   float64
}

// Quantile returns the exact q-quantile of sorted samples, linearly
// interpolated between the neighbouring order statistics; 0 when there are
// none. Interpolation keeps small sample sets honest: a truncating or
// nearest-rank index collapses p50 and p99 onto one sample below ~1/(1-q)
// samples.
func Quantile[T ~int64 | ~uint64 | ~float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	v := float64(sorted[lo])
	if frac := pos - float64(lo); frac > 0 && lo+1 < len(sorted) {
		v += frac * (float64(sorted[lo+1]) - v)
	}
	return v
}

// SpanStats aggregates span durations per event name, sorted by total time
// descending (ties by name) — the "where did the time go" table.
func (t *Trace) SpanStats() []SpanStat {
	durs := make(map[string][]uint64)
	for _, tr := range t.Tracks {
		for _, s := range tr.Spans {
			durs[s.Name] = append(durs[s.Name], s.Dur)
		}
	}
	out := make([]SpanStat, 0, len(durs))
	for name, d := range durs {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		st := SpanStat{Name: name, Count: len(d), Min: d[0], Max: d[len(d)-1]}
		for _, v := range d {
			st.Total += v
		}
		st.P50 = Quantile(d, 0.50)
		st.P95 = Quantile(d, 0.95)
		st.P99 = Quantile(d, 0.99)
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// TrackUtil is one track's busy-time summary: the union of its span
// intervals over the whole trace extent (overlapping spans are not double
// counted).
type TrackUtil struct {
	Process string
	Track   string
	Spans   int
	Busy    uint64  // union of span intervals
	Util    float64 // Busy / trace extent, 0 when the extent is empty
}

// unionLen returns the total length of the union of [start, start+dur)
// intervals.
func unionLen(spans []Span) uint64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]uint64, len(spans))
	for i, s := range spans {
		iv[i] = [2]uint64{s.Start, s.Start + s.Dur}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi uint64
	curLo, curHi = iv[0][0], iv[0][1]
	for _, p := range iv[1:] {
		if p[0] > curHi {
			total += curHi - curLo
			curLo, curHi = p[0], p[1]
			continue
		}
		if p[1] > curHi {
			curHi = p[1]
		}
	}
	return total + (curHi - curLo)
}

// Utilization computes each track's busy fraction of the trace extent,
// in file order. Tracks with no spans are included with zero busy time so
// the report shows the full topology.
func (t *Trace) Utilization() []TrackUtil {
	_, _, ok := t.Extent()
	start, end, _ := t.Extent()
	span := end - start
	out := make([]TrackUtil, 0, len(t.Tracks))
	for _, tr := range t.Tracks {
		u := TrackUtil{Process: tr.Process, Track: tr.Name, Spans: len(tr.Spans), Busy: unionLen(tr.Spans)}
		if ok && span > 0 {
			u.Util = float64(u.Busy) / float64(span)
		}
		out = append(out, u)
	}
	return out
}

// CounterStat summarizes one counter series on one track. Mean is
// time-weighted: each sample holds its value until the next sample (the
// staircase the trace viewer draws), with the final sample extending to the
// trace end.
type CounterStat struct {
	Process string
	Track   string
	Name    string
	Samples int
	Min     int64
	Max     int64
	Mean    float64
}

// CounterStats summarizes every counter series, in file order.
func (t *Trace) CounterStats() []CounterStat {
	_, end, _ := t.Extent()
	var out []CounterStat
	for _, tr := range t.Tracks {
		series := make(map[string][]Sample)
		var names []string
		for _, c := range tr.Samples {
			if _, seen := series[c.Name]; !seen {
				names = append(names, c.Name)
			}
			series[c.Name] = append(series[c.Name], c)
		}
		for _, name := range names {
			ss := series[name]
			sort.SliceStable(ss, func(i, j int) bool { return ss[i].Ts < ss[j].Ts })
			st := CounterStat{Process: tr.Process, Track: tr.Name, Name: name,
				Samples: len(ss), Min: ss[0].Value, Max: ss[0].Value}
			var weighted float64
			var weight uint64
			for i, c := range ss {
				st.Min = min(st.Min, c.Value)
				st.Max = max(st.Max, c.Value)
				hold := end
				if i+1 < len(ss) {
					hold = ss[i+1].Ts
				}
				if hold > c.Ts {
					weighted += float64(c.Value) * float64(hold-c.Ts)
					weight += hold - c.Ts
				}
			}
			if weight > 0 {
				st.Mean = weighted / float64(weight)
			} else {
				st.Mean = float64(ss[len(ss)-1].Value)
			}
			out = append(out, st)
		}
	}
	return out
}

// PhaseAgg is one critical-path phase's contribution.
type PhaseAgg struct {
	Phase string
	Count int
	Total uint64
	Mean  float64
	Max   uint64
}

// CriticalPath is the producer → invalidate → drain decomposition of a
// Cohort handoff, the trace-level analogue of the paper's Fig. 8 latency
// breakdown:
//
//   - ProducerWait: "rcm-wait" spans (recorded on the engine's endpoint
//     tracks) — cycles an endpoint sat in the register-check monitor
//     waiting for its peer to publish an updated queue pointer.
//   - Invalidate: coherence directory transaction spans (GetS/GetM/PutM/
//     GetOnce/PutOnce on dir* tracks) — the invalidate/fetch traffic that
//     moves the queue's cache lines between producer and consumer.
//   - Drain: latency from each "inv-wakeup" instant on a cohort's rcm track
//     to the next "publish-rptr" on the same cohort's consumer track — how
//     long the engine took to drain the newly visible words and publish
//     consumption back.
//
// Phases overlap in wall-clock (the directory works while the RCM waits),
// so the totals decompose where the time went, not a sum of the runtime.
type CriticalPath struct {
	ProducerWait PhaseAgg
	Invalidate   PhaseAgg
	DirOps       []PhaseAgg // Invalidate split per directory op kind
	Drain        PhaseAgg
}

// dirOps are the coherence directory transaction span names.
var dirOps = map[string]bool{
	"GetS": true, "GetM": true, "PutM": true, "GetOnce": true, "PutOnce": true,
}

// cohortOf extracts the engine identity from a "cohort<N>.<role>" track
// name ("" when the track is not an engine track).
func cohortOf(track string) string {
	rest, ok := strings.CutPrefix(track, "cohort")
	if !ok {
		return ""
	}
	id, _, ok := strings.Cut(rest, ".")
	if !ok {
		return ""
	}
	return id
}

func aggSpans(phase string, durs []uint64) PhaseAgg {
	a := PhaseAgg{Phase: phase, Count: len(durs)}
	for _, d := range durs {
		a.Total += d
		a.Max = max(a.Max, d)
	}
	if a.Count > 0 {
		a.Mean = float64(a.Total) / float64(a.Count)
	}
	return a
}

// CriticalPath computes the Fig. 8-style decomposition. Traces without the
// Cohort vocabulary (e.g. native-runtime traces) yield zero-count phases.
func (t *Trace) CriticalPath() CriticalPath {
	var waitDurs []uint64
	invDurs := make(map[string][]uint64)
	wakeups := make(map[string][]uint64)   // cohort id → inv-wakeup timestamps
	publishes := make(map[string][]uint64) // cohort id → publish-rptr timestamps

	for _, tr := range t.Tracks {
		for _, s := range tr.Spans {
			if s.Name == "rcm-wait" {
				waitDurs = append(waitDurs, s.Dur)
			}
		}
		id := cohortOf(tr.Name)
		switch {
		case strings.HasSuffix(tr.Name, ".rcm") && id != "":
			for _, i := range tr.Instants {
				if i.Name == "inv-wakeup" {
					wakeups[id] = append(wakeups[id], i.Ts)
				}
			}
		case strings.HasSuffix(tr.Name, ".consumer") && id != "":
			for _, i := range tr.Instants {
				if i.Name == "publish-rptr" {
					publishes[id] = append(publishes[id], i.Ts)
				}
			}
		case strings.HasPrefix(tr.Name, "dir"):
			for _, s := range tr.Spans {
				if dirOps[s.Name] {
					invDurs[s.Name] = append(invDurs[s.Name], s.Dur)
				}
			}
		}
	}

	cp := CriticalPath{ProducerWait: aggSpans("producer-wait", waitDurs)}

	var allInv []uint64
	var opNames []string
	for name := range invDurs {
		opNames = append(opNames, name)
	}
	sort.Strings(opNames)
	for _, name := range opNames {
		cp.DirOps = append(cp.DirOps, aggSpans(name, invDurs[name]))
		allInv = append(allInv, invDurs[name]...)
	}
	cp.Invalidate = aggSpans("invalidate", allInv)

	// Pair each wakeup with the first publish-rptr at or after it on the
	// same engine; unmatched wakeups (end of trace) are dropped.
	var drainLat []uint64
	for id, ws := range wakeups {
		ps := publishes[id]
		sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
		sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
		j := 0
		for _, w := range ws {
			for j < len(ps) && ps[j] < w {
				j++
			}
			if j == len(ps) {
				break
			}
			drainLat = append(drainLat, ps[j]-w)
			j++
		}
	}
	cp.Drain = aggSpans("drain", drainLat)
	return cp
}
