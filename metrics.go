package cohort

import (
	"fmt"
	"io"
	"math/bits"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the native runtime's observability surface: a pull-based
// metrics registry over the runtime's allocation-free counters and a log2
// latency-histogram snapshot type. Its wall-clock trace recorder,
// FlightRecorder (flight.go), writes the same Chrome trace-event JSON as the
// simulator — so a native run and a simulated run open side by side in
// Perfetto.

// Metric is one named sample: a plain counter value, or — when Histo is
// non-nil — a whole latency distribution (rendered as quantiles by String
// and as a Prometheus summary by WritePrometheus), or — when IsFloat is
// set — a float-valued gauge (the windowed rates internal/telem derives;
// Value is ignored).
type Metric struct {
	Name    string
	Value   uint64
	Float   float64
	IsFloat bool
	Histo   *LatencyHistogram
}

// FloatMetric builds a float-valued gauge sample.
func FloatMetric(name string, v float64) Metric {
	return Metric{Name: name, Float: v, IsFloat: true}
}

// SourceSnapshot is one registered source's counters at snapshot time.
type SourceSnapshot struct {
	Name    string
	Metrics []Metric
}

// Label is one extra Prometheus label pair attached to a metric source
// (RegisterLabeled) — how a multi-tenant service keys a source by tenant.
type Label struct {
	Key   string
	Value string
}

// source is one registered metric source: its snapshot callback plus any
// extra exposition labels.
type source struct {
	fn     func() []Metric
	labels []Label
}

// Registry collects metric sources (queues, engines, adapters) and snapshots
// them on demand. Sources are polled only inside Snapshot/String, so
// registration adds zero cost to the instrumented hot paths. Safe for
// concurrent use.
type Registry struct {
	mu      sync.Mutex
	order   []string
	sources map[string]source
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{sources: make(map[string]source)}
}

// Register adds (or replaces) a named metric source. fn is called during
// Snapshot and must be safe to call at any time; for Fifo-backed sources the
// values are exact only when the queue's two sides are quiescent.
func (r *Registry) Register(name string, fn func() []Metric) {
	r.RegisterLabeled(name, nil, fn)
}

// RegisterLabeled is Register with extra Prometheus labels emitted on every
// sample of the source (after the implicit source label). A serving layer
// uses this to key per-session sources by tenant, so dashboards can aggregate
// across a tenant's sessions no matter how the source names are spelled.
// Labels only affect WritePrometheus output; Snapshot and String ignore them.
func (r *Registry) RegisterLabeled(name string, labels []Label, fn func() []Metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.sources[name]; !ok {
		r.order = append(r.order, name)
	}
	r.sources[name] = source{fn: fn, labels: append([]Label(nil), labels...)}
}

// Len returns the number of registered sources.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sources)
}

// Unregister removes a source; unknown names are ignored.
func (r *Registry) Unregister(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.sources[name]; !ok {
		return
	}
	delete(r.sources, name)
	for i, n := range r.order {
		if n == name {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
}

// Snapshot polls every source in registration order.
func (r *Registry) Snapshot() []SourceSnapshot {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fns := make([]func() []Metric, len(names))
	for i, n := range names {
		fns[i] = r.sources[n].fn
	}
	r.mu.Unlock()
	// Poll outside the lock: a source callback may itself take locks.
	out := make([]SourceSnapshot, len(names))
	for i, n := range names {
		out[i] = SourceSnapshot{Name: n, Metrics: fns[i]()}
	}
	return out
}

// SnapshotLabeled is Snapshot plus each source's exposition labels, aligned
// by index — the view WritePrometheus renders: a consumer that needs to
// group sources by tenant reads the labels instead of parsing source-name
// spellings.
func (r *Registry) SnapshotLabeled() ([]SourceSnapshot, [][]Label) {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fns := make([]func() []Metric, len(names))
	labels := make([][]Label, len(names))
	for i, n := range names {
		fns[i], labels[i] = r.sources[n].fn, r.sources[n].labels
	}
	r.mu.Unlock()
	out := make([]SourceSnapshot, len(names))
	for i, n := range names {
		out[i] = SourceSnapshot{Name: n, Metrics: fns[i]()}
	}
	return out, labels
}

// String renders the snapshot as an aligned two-column table, one section per
// source.
func (r *Registry) String() string {
	var b strings.Builder
	for _, s := range r.Snapshot() {
		fmt.Fprintf(&b, "%s:\n", s.Name)
		width := 0
		for _, m := range s.Metrics {
			if len(m.Name) > width {
				width = len(m.Name)
			}
		}
		for _, m := range s.Metrics {
			if m.Histo != nil {
				fmt.Fprintf(&b, "  %-*s p50=%.0fns p95=%.0fns p99=%.0fns n=%d\n", width, m.Name,
					m.Histo.Quantile(0.5), m.Histo.Quantile(0.95), m.Histo.Quantile(0.99), m.Histo.Samples())
				continue
			}
			if m.IsFloat {
				fmt.Fprintf(&b, "  %-*s %g\n", width, m.Name, m.Float)
				continue
			}
			fmt.Fprintf(&b, "  %-*s %d\n", width, m.Name, m.Value)
		}
	}
	return b.String()
}

// WritePrometheus renders the registry snapshot in the Prometheus text
// exposition format (version 0.0.4): one metric family per distinct metric
// name, prefixed `cohort_`, with the source name as a `source` label.
// Families are emitted in sorted name order with HELP/TYPE lines; within a
// family, samples appear in source registration order — the output is
// deterministic for a fixed registry state, which the golden-file test pins.
// Plain counters are exposed as gauges (a snapshot of a monotone counter);
// histogram-valued metrics (Metric.Histo) become summaries with
// p50/p95/p99 quantiles computed by LatencyHistogram.Quantile, a
// midpoint-estimated _sum, and an exact _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	type sample struct {
		labels string // rendered label set: source plus any extra labels
		m      Metric
	}
	families := make(map[string][]sample)
	var names []string
	snaps, labels := r.SnapshotLabeled()
	for i, s := range snaps {
		var lb strings.Builder
		fmt.Fprintf(&lb, "source=\"%s\"", promEscape(s.Name))
		for _, l := range labels[i] {
			fmt.Fprintf(&lb, ",%s=\"%s\"", promLabelKey(l.Key), promEscape(l.Value))
		}
		rendered := lb.String()
		for _, m := range s.Metrics {
			fam := promName(m.Name)
			if _, ok := families[fam]; !ok {
				names = append(names, fam)
			}
			families[fam] = append(families[fam], sample{rendered, m})
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for _, fam := range names {
		ss := families[fam]
		kind := "gauge"
		if ss[0].m.Histo != nil {
			kind = "summary"
		}
		fmt.Fprintf(&b, "# HELP %s Cohort runtime metric %s.\n", fam, ss[0].m.Name)
		fmt.Fprintf(&b, "# TYPE %s %s\n", fam, kind)
		for _, s := range ss {
			if h := s.m.Histo; h != nil {
				for _, q := range [...]float64{0.5, 0.95, 0.99} {
					fmt.Fprintf(&b, "%s{%s,quantile=\"%g\"} %s\n", fam, s.labels, q, promFloat(h.Quantile(q)))
				}
				fmt.Fprintf(&b, "%s_sum{%s} %s\n", fam, s.labels, promFloat(h.sumEstimate()))
				fmt.Fprintf(&b, "%s_count{%s} %d\n", fam, s.labels, h.Samples())
				continue
			}
			if s.m.IsFloat {
				fmt.Fprintf(&b, "%s{%s} %s\n", fam, s.labels, promFloat(s.m.Float))
				continue
			}
			fmt.Fprintf(&b, "%s{%s} %d\n", fam, s.labels, s.m.Value)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// promName sanitizes a metric name into the Prometheus identifier alphabet
// ([a-zA-Z0-9_:]) under the cohort_ namespace.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("cohort_")
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabelKey sanitizes a label key into the Prometheus identifier alphabet
// (promName's, minus the cohort_ namespace prefix — label keys are not
// metric names).
func promLabelKey(k string) string {
	return strings.TrimPrefix(promName(k), "cohort_")
}

// promEscape escapes a label value per the exposition format: backslash,
// double quote and newline.
func promEscape(v string) string {
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// promFloat formats a float sample value (quantiles, sums).
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// RegisterBuildInfo exposes a constant cohort_build_info gauge (value 1)
// under the given source name, with the binary's identity as labels: module
// version (from debug.ReadBuildInfo; "unknown" outside module builds), Go
// toolchain version, GOOS and GOARCH. The Prometheus *_info idiom: join
// against it to annotate any other series with what build produced it.
func RegisterBuildInfo(r *Registry, name string) {
	version := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	labels := []Label{
		{Key: "version", Value: version},
		{Key: "go_version", Value: runtime.Version()},
		{Key: "goos", Value: runtime.GOOS},
		{Key: "goarch", Value: runtime.GOARCH},
	}
	r.RegisterLabeled(name, labels, func() []Metric {
		return []Metric{{Name: "build_info", Value: 1}}
	})
}

// RegisterFifo exposes a queue's FifoStats under the given source name.
// (A package function rather than a Registry method: methods cannot add type
// parameters.)
func RegisterFifo[T any](r *Registry, name string, q *Fifo[T]) {
	r.Register(name, func() []Metric {
		s := q.Stats()
		return []Metric{
			{Name: "pushes", Value: s.Pushes},
			{Name: "pops", Value: s.Pops},
			{Name: "push_stalls", Value: s.PushStalls},
			{Name: "pop_stalls", Value: s.PopStalls},
			{Name: "high_water", Value: s.HighWater},
		}
	})
}

// RegisterEngine exposes an engine's EngineStats under the given source
// name, with the sampled drain latency distribution as a histogram-valued
// metric (quantiles in String/WritePrometheus output).
func RegisterEngine(r *Registry, name string, e *Engine) {
	r.Register(name, func() []Metric {
		s := e.StatsDetail()
		h := s.DrainNs
		return []Metric{
			{Name: "words_in", Value: s.WordsIn},
			{Name: "words_out", Value: s.WordsOut},
			{Name: "blocks", Value: s.Blocks},
			{Name: "wakeups", Value: s.Wakeups},
			{Name: "backoff_sleeps", Value: s.BackoffSleeps},
			{Name: "errors", Value: s.Errors},
			{Name: "retries", Value: s.Retries},
			{Name: "recovered", Value: s.Recovered},
			{Name: "dropped_words", Value: s.DroppedWords},
			{Name: "drain_ns", Histo: &h},
		}
	})
}

// FieldMetrics converts a flat counters struct — exported fields of unsigned,
// signed or LatencyHistogram type — into a metric list, naming each metric
// after its field in snake_case. It lets ad-hoc stat structs (the simulator's
// per-subsystem counters, for instance) feed a Registry without hand-written
// adapters:
//
//	reg.Register("dir", func() []cohort.Metric { return cohort.FieldMetrics(dir.Stats()) })
//
// Non-struct values and unsupported field types yield no metrics; negative
// signed values are clamped to 0.
func FieldMetrics(v any) []Metric {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Struct {
		return nil
	}
	rt := rv.Type()
	var out []Metric
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if !f.IsExported() {
			continue
		}
		name := snakeCase(f.Name)
		fv := rv.Field(i)
		switch fv.Kind() {
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			out = append(out, Metric{Name: name, Value: fv.Uint()})
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			n := fv.Int()
			if n < 0 {
				n = 0
			}
			out = append(out, Metric{Name: name, Value: uint64(n)})
		default:
			if h, ok := fv.Interface().(LatencyHistogram); ok {
				hc := h
				out = append(out, Metric{Name: name, Histo: &hc})
			}
		}
	}
	return out
}

// snakeCase converts a Go exported field name (TLBHits, WordsIn) to a metric
// identifier (tlb_hits, words_in): an underscore is inserted before each
// upper→lower boundary and each lower/digit→upper boundary.
func snakeCase(s string) string {
	var b strings.Builder
	rs := []rune(s)
	for i, c := range rs {
		isUpper := c >= 'A' && c <= 'Z'
		if isUpper && i > 0 {
			prevUpper := rs[i-1] >= 'A' && rs[i-1] <= 'Z'
			nextLower := i+1 < len(rs) && rs[i+1] >= 'a' && rs[i+1] <= 'z'
			if !prevUpper || nextLower {
				b.WriteByte('_')
			}
		}
		if isUpper {
			c += 'a' - 'A'
		}
		b.WriteRune(c)
	}
	return b.String()
}

// LatencyHistogram is a log2-bucketed latency distribution in nanoseconds:
// Buckets[i] counts samples whose value has bit length i, i.e. lies in
// [2^(i-1), 2^i) ns (bucket 0 counts zero-duration samples).
type LatencyHistogram struct {
	Buckets [histoBuckets]uint64
}

// LatencyRecorder is the concurrent accumulator behind a LatencyHistogram: a
// fixed array of atomic log2 buckets plus an exact running sum, safe for any
// number of writers with no locks and no allocation per sample. The engine's
// drain histogram and the serving scheduler's per-stage attribution both
// record through it; Snapshot hands the counts to LatencyHistogram for
// quantile math. The zero value is ready to use.
type LatencyRecorder struct {
	buckets [histoBuckets]atomic.Uint64
	sum     atomic.Uint64
}

// Observe files one latency sample in nanoseconds.
func (r *LatencyRecorder) Observe(ns uint64) {
	i := bits.Len64(ns)
	if i >= histoBuckets {
		i = histoBuckets - 1
	}
	r.buckets[i].Add(1)
	r.sum.Add(ns)
}

// Snapshot copies the bucket counts into a plain LatencyHistogram.
func (r *LatencyRecorder) Snapshot() LatencyHistogram {
	var h LatencyHistogram
	for i := range r.buckets {
		h.Buckets[i] = r.buckets[i].Load()
	}
	return h
}

// Samples returns the total number of recorded samples.
func (r *LatencyRecorder) Samples() uint64 {
	var n uint64
	for i := range r.buckets {
		n += r.buckets[i].Load()
	}
	return n
}

// SumNs returns the exact sum of every recorded sample in nanoseconds (the
// histogram buckets only bound each sample to a factor of 2; the sum is kept
// exactly so means don't inherit that error).
func (r *LatencyRecorder) SumNs() uint64 { return r.sum.Load() }

// Reset zeroes the recorder. Not atomic with respect to concurrent Observe
// calls; quiesce writers first, as with engine ResetStats.
func (r *LatencyRecorder) Reset() {
	for i := range r.buckets {
		r.buckets[i].Store(0)
	}
	r.sum.Store(0)
}

// Samples returns the total number of recorded samples.
func (h LatencyHistogram) Samples() uint64 {
	var n uint64
	for _, c := range h.Buckets {
		n += c
	}
	return n
}

// Quantile estimates the p-quantile (p in [0,1]) of the recorded
// distribution in nanoseconds: it walks the cumulative bucket counts to the
// bucket containing the target rank and interpolates linearly between that
// bucket's bounds [2^(i-1), 2^i). The estimate is exact for distributions
// uniform within each bucket and always lies inside the true sample's
// bucket, i.e. within a factor of 2. Returns 0 when no samples are recorded.
func (h LatencyHistogram) Quantile(p float64) float64 {
	n := h.Samples()
	if n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := p * float64(n)
	if target < 1 {
		target = 1
	}
	var cum float64
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if target <= next {
			if i == 0 {
				return 0 // bucket 0 is exactly the zero-duration samples
			}
			lo := float64(uint64(1) << (i - 1))
			hi := float64(uint64(1) << i)
			return lo + (target-cum)/float64(c)*(hi-lo)
		}
		cum = next
	}
	return float64(uint64(1) << (histoBuckets - 1)) // unreachable: target <= n
}

// sumEstimate approximates the distribution's total in nanoseconds from the
// bucket midpoints (bucket i's samples counted at 1.5·2^(i-1) ns).
func (h LatencyHistogram) sumEstimate() float64 {
	var sum float64
	for i, c := range h.Buckets {
		if c == 0 || i == 0 {
			continue
		}
		sum += float64(c) * 1.5 * float64(uint64(1)<<(i-1))
	}
	return sum
}

// String renders the nonzero buckets, one "<upper-bound>ns: count" pair per
// line, in ascending latency order.
func (h LatencyHistogram) String() string {
	var b strings.Builder
	for i, c := range h.Buckets {
		if c != 0 {
			fmt.Fprintf(&b, "<%dns: %d\n", uint64(1)<<i, c)
		}
	}
	if b.Len() == 0 {
		return "(no samples)\n"
	}
	return b.String()
}
