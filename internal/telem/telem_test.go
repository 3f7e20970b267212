package telem

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cohort"
	"cohort/internal/sched"
)

// fakeSource stands in for a scheduler's Totals: a typed record per tenant,
// sorted by name, and the scheduler-wide counters. Tests mutate the records
// between ticks.
type fakeSource struct {
	sched   sched.SchedStats
	tenants []*fakeTenant
}

// fakeTenant is one tenant's mutable record.
type fakeTenant struct {
	name                   string
	blocks, retries, kills uint64
	terminal               uint64
	compute                cohort.LatencyRecorder
}

// tenant adds a record named name (names must be added in order).
func (f *fakeSource) tenant(name string) *fakeTenant {
	ft := &fakeTenant{name: name}
	f.tenants = append(f.tenants, ft)
	return ft
}

func (f *fakeSource) totals() sched.Totals {
	tot := sched.Totals{Sched: f.sched}
	for _, ft := range f.tenants {
		tot.Tenants = append(tot.Tenants, sched.TenantTotals{
			Tenant: ft.name, Blocks: ft.blocks, Retries: ft.retries,
			TerminalFaults: ft.terminal, Kills: ft.kills,
			Stages: sched.StageTotals{Compute: sched.StageTotal{
				Histo: ft.compute.Snapshot(), SumNs: ft.compute.SumNs(),
			}},
		})
	}
	return tot
}

// newTestSampler builds a sampler with a 1s tick, 3-tick short window and
// 6-tick long window, driven manually through tick().
func newTestSampler(t *testing.T, src *fakeSource, slos []SLO, events *Log) *Sampler {
	t.Helper()
	s := New(Config{
		Source: src.totals,
		Tick:   time.Second,
		Short:  3 * time.Second,
		Long:   6 * time.Second,
		SLOs:   slos,
		Events: events,
	})
	t.Cleanup(s.Stop)
	return s
}

var t0 = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

func TestWindowedRates(t *testing.T) {
	src := &fakeSource{}
	ft := src.tenant("alice")
	s := newTestSampler(t, src, nil, nil)

	s.tick(t0) // baseline
	ft.blocks += 300
	ft.retries += 3
	src.sched.Decisions += 300
	s.tick(t0.Add(1 * time.Second))

	w := s.Windows()
	if len(w.Tenants) != 1 || w.Tenants[0].Tenant != "alice" {
		t.Fatalf("tenants = %+v, want [alice]", w.Tenants)
	}
	short := w.Tenants[0].Short
	if short.Seconds != 1 {
		t.Fatalf("short window covers %vs, want 1s", short.Seconds)
	}
	if short.BlocksPerSec != 300 {
		t.Errorf("blocks/s = %v, want 300", short.BlocksPerSec)
	}
	if short.RetriesPerSec != 3 || short.ErrorsPerSec != 3 {
		t.Errorf("retries/s = %v errors/s = %v, want 3 and 3", short.RetriesPerSec, short.ErrorsPerSec)
	}
	if got := w.Service.Short.DecisionsPerSec; got != 300 {
		t.Errorf("service decisions/s = %v, want 300", got)
	}

	// Two idle ticks: the 3-tick short window still sees the burst, diluted.
	s.tick(t0.Add(2 * time.Second))
	s.tick(t0.Add(3 * time.Second))
	short = s.Windows().Tenants[0].Short
	if short.Seconds != 3 {
		t.Fatalf("short window covers %vs, want 3s", short.Seconds)
	}
	if want := 100.0; short.BlocksPerSec != want {
		t.Errorf("blocks/s after dilution = %v, want %v", short.BlocksPerSec, want)
	}
	// One more idle tick and the burst ages out of the short window entirely.
	s.tick(t0.Add(4 * time.Second))
	if got := s.Windows().Tenants[0].Short.BlocksPerSec; got != 0 {
		t.Errorf("blocks/s after burst aged out = %v, want 0", got)
	}
	// The 6-tick long window still sees it.
	if got := s.Windows().Tenants[0].Long.BlocksPerSec; got != 300.0/4 {
		t.Errorf("long blocks/s = %v, want 75", got)
	}
}

func TestWindowedQuantiles(t *testing.T) {
	src := &fakeSource{}
	ft := src.tenant("alice")
	s := newTestSampler(t, src, nil, nil)

	for i := 0; i < 100; i++ {
		ft.compute.Observe(1000) // ~1us era
	}
	s.tick(t0)
	for i := 0; i < 100; i++ {
		ft.compute.Observe(4 << 20) // ~4ms era
	}
	s.tick(t0.Add(1 * time.Second))

	// The short window must contain only the second batch: its p50 sits in
	// the 4ms bucket, far above the 1us samples from before the window.
	sw := s.Windows().Tenants[0].Short.Stages.Compute
	if sw.Samples != 100 {
		t.Fatalf("windowed samples = %d, want 100 (baseline batch excluded)", sw.Samples)
	}
	if sw.P50Ns < 1e6 {
		t.Errorf("windowed p50 = %vns, want in the millisecond era", sw.P50Ns)
	}
}

func TestCounterResetClamps(t *testing.T) {
	src := &fakeSource{}
	ft := src.tenant("alice")
	s := newTestSampler(t, src, nil, nil)

	ft.blocks = 1000
	s.tick(t0)
	ft.blocks = 10 // restarted source: cumulative counter went backwards
	s.tick(t0.Add(1 * time.Second))
	if got := s.Windows().Tenants[0].Short.BlocksPerSec; got != 0 {
		t.Errorf("rate after counter reset = %v, want clamp to 0", got)
	}
}

func TestSLOBreachWithinTwoTicksAndRecovery(t *testing.T) {
	src := &fakeSource{}
	ft := src.tenant("alice")
	events := NewLog(64, nil)
	s := newTestSampler(t, src, []SLO{{Tenant: "*", Stage: "compute", P99Ms: 1}}, events)

	s.tick(t0) // tick 1: baseline, no samples
	if d := s.Degraded(); d != "" {
		t.Fatalf("degraded before breach: %q", d)
	}
	for i := 0; i < 100; i++ {
		ft.compute.Observe(4 << 20) // ~4ms >> 1ms target
	}
	s.tick(t0.Add(1 * time.Second)) // tick 2: breach must be visible now

	doc := s.Status()
	if len(doc.SLOs) != 1 {
		t.Fatalf("slo rows = %+v, want 1", doc.SLOs)
	}
	row := doc.SLOs[0]
	if row.State != "breach" || row.Tenant != "alice" {
		t.Fatalf("row = %+v, want alice in breach", row)
	}
	if !strings.Contains(row.Reason, "compute p99") {
		t.Errorf("reason = %q, want compute p99 mention", row.Reason)
	}
	if s.Degraded() == "" || !strings.Contains(s.Degraded(), "alice") {
		t.Errorf("Degraded() = %q, want alice breach", s.Degraded())
	}

	// Idle ticks age the spike out of the 3-tick short window -> recovery.
	for i := 2; i <= 5; i++ {
		s.tick(t0.Add(time.Duration(i) * time.Second))
	}
	if s.Degraded() != "" {
		t.Fatalf("still degraded after short window cleared: %q", s.Degraded())
	}
	got, _, _ := events.Since(0, 0)
	if len(got) != 2 || got[0].Type != EventSLOBreach || got[1].Type != EventSLORecovery {
		t.Fatalf("events = %+v, want [slo_breach slo_recovery]", got)
	}
	if got[0].Tenant != "alice" || got[1].Tenant != "alice" {
		t.Errorf("event tenants = %q/%q, want alice", got[0].Tenant, got[1].Tenant)
	}
	if st := s.Status().SLOs[0]; st.Transitions != 2 || st.State != "ok" {
		t.Errorf("final row = %+v, want ok with 2 transitions", st)
	}
}

func TestSLOMultiWindowSuppressesBlip(t *testing.T) {
	src := &fakeSource{}
	ft := src.tenant("alice")
	events := NewLog(64, nil)
	s := newTestSampler(t, src, []SLO{{Tenant: "alice", MaxErrorsPerSec: 5}}, events)

	// Fill the 6-tick long window with clean baseline first.
	for i := 0; i <= 7; i++ {
		s.tick(t0.Add(time.Duration(i) * time.Second))
	}
	// One-tick blip of 24 errors: the 3s short window sees 8/s (burn 1.6),
	// but the 6s long window only 4/s (burn 0.8) — multi-window logic must
	// hold the breach back.
	ft.retries += 24
	s.tick(t0.Add(8 * time.Second))
	row := s.Status().SLOs[0]
	if row.State != "ok" {
		t.Fatalf("one-tick blip breached: %+v (short burn %v, long burn %v)",
			row, row.BurnShort, row.BurnLong)
	}
	if row.BurnShort < 1 {
		t.Fatalf("test not exercising multi-window logic: short burn %v < 1", row.BurnShort)
	}

	// Sustained errors push the long window over budget too -> breach.
	for i := 9; i < 15; i++ {
		ft.retries += 24
		s.tick(t0.Add(time.Duration(i) * time.Second))
	}
	row = s.Status().SLOs[0]
	if row.State != "breach" {
		t.Fatalf("sustained errors did not breach: %+v", row)
	}
	if !strings.Contains(row.Reason, "error rate") {
		t.Errorf("reason = %q, want error rate mention", row.Reason)
	}
}

func TestSLOExplicitTenantRowWithoutTraffic(t *testing.T) {
	s := newTestSampler(t, &fakeSource{}, []SLO{{Tenant: "bob", Stage: "wire", P99Ms: 2}}, nil)
	s.tick(t0)
	doc := s.Status()
	if len(doc.SLOs) != 1 || doc.SLOs[0].Tenant != "bob" || doc.SLOs[0].State != "ok" {
		t.Fatalf("rows = %+v, want idle ok row for bob", doc.SLOs)
	}
}

// TestSelfMetricsExport: the sampler's self-metrics report its ticks and
// the tenants of its latest frame, and its owner publishes them as a
// registry source.
func TestSelfMetricsExport(t *testing.T) {
	src := &fakeSource{}
	ft := src.tenant("alice")
	s := newTestSampler(t, src, nil, nil)

	s.tick(t0)
	ft.blocks += 120
	s.tick(t0.Add(1 * time.Second))

	m := s.Metrics()
	if m[0].Name != "telem_ticks" || m[0].Value != 2 || m[1].Name != "telem_tenants" || m[1].Value != 1 {
		t.Errorf("self-metrics = %+v, want 2 ticks and 1 tenant", m[:2])
	}
	reg := cohort.NewRegistry()
	reg.Register("telem", s.Metrics)
	var b strings.Builder
	reg.WritePrometheus(&b)
	if !strings.Contains(b.String(), "cohort_telem_ticks") {
		t.Errorf("prometheus output missing sampler self-metrics")
	}
}

func TestSamplerStartStop(t *testing.T) {
	src := &fakeSource{}
	src.tenant("alice")
	s := New(Config{Source: src.totals, Tick: time.Millisecond, Short: 5 * time.Millisecond, Long: 20 * time.Millisecond})
	s.Start()
	deadline := time.Now().Add(2 * time.Second)
	for s.Windows().Ticks == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sampler never ticked")
		}
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	s.Stop() // idempotent
}

func TestParseSLOs(t *testing.T) {
	specs, err := ParseSLOs(`[{"tenant":"alice","stage":"compute","p99_ms":1.5},{"tenant":"*","max_errors_per_s":2}]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].P99Ms != 1.5 || specs[1].Tenant != "*" || specs[1].Stage != "compute" {
		t.Fatalf("specs = %+v", specs)
	}

	one, err := ParseSLOs(`{"tenant":"bob","stage":"wire","p99_ms":3}`)
	if err != nil || len(one) != 1 || one[0].Stage != "wire" {
		t.Fatalf("single object: %+v, %v", one, err)
	}

	path := filepath.Join(t.TempDir(), "slo.json")
	if err := os.WriteFile(path, []byte(`[{"tenant":"x","p99_ms":9}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := ParseSLOs(path)
	if err != nil || len(fromFile) != 1 || fromFile[0].Tenant != "x" {
		t.Fatalf("from file: %+v, %v", fromFile, err)
	}

	if got, err := ParseSLOs(""); err != nil || got != nil {
		t.Fatalf("empty: %+v, %v", got, err)
	}
	for _, bad := range []string{
		`[{"tenant":"a","stage":"bogus","p99_ms":1}]`,
		`[{"tenant":"a"}]`,
		`[{"tenant":"a","p99_ms":-1}]`,
		`not-a-file-9a8b7c`,
		`[{"tenant":`,
	} {
		if _, err := ParseSLOs(bad); err == nil {
			t.Errorf("ParseSLOs(%q) accepted", bad)
		}
	}
}

func TestEventLogSinceAndWrap(t *testing.T) {
	l := NewLog(16, nil)
	if evs, next, dropped := l.Since(0, 0); len(evs) != 0 || next != 0 || dropped != 0 {
		t.Fatalf("empty Since = %v %d %d", evs, next, dropped)
	}
	for i := 0; i < 40; i++ {
		l.Emit("session_kill", "alice", uint64(i+1), "over budget")
	}

	// A cursor from before the ring's oldest entry reports the loss.
	evs, next, dropped := l.Since(0, 0)
	if len(evs) != 16 || dropped != 24 || next != 40 {
		t.Fatalf("Since(0) = %d events, dropped %d, next %d; want 16/24/40", len(evs), dropped, next)
	}
	if evs[0].Seq != 25 || evs[15].Seq != 40 {
		t.Fatalf("seq range [%d,%d], want [25,40]", evs[0].Seq, evs[15].Seq)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("non-contiguous seqs at %d: %+v", i, evs)
		}
	}

	// Paged tailing: max bounds each page, next resumes without loss.
	evs, next, dropped = l.Since(30, 4)
	if len(evs) != 4 || evs[0].Seq != 31 || next != 34 || dropped != 0 {
		t.Fatalf("page 1 = %+v next %d dropped %d", evs, next, dropped)
	}
	evs, next, _ = l.Since(next, 100)
	if len(evs) != 6 || evs[0].Seq != 35 || next != 40 {
		t.Fatalf("page 2 = %+v next %d", evs, next)
	}
	// Caught up: cursor at head returns nothing and keeps the cursor.
	if evs, next2, _ := l.Since(next, 4); len(evs) != 0 || next2 != next {
		t.Fatalf("caught-up Since = %v %d", evs, next2)
	}

	p := l.PageSince(40, 10)
	if p.Events == nil || len(p.Events) != 0 || p.Next != 40 {
		t.Fatalf("PageSince at head = %+v, want empty non-nil slice", p)
	}
}

func TestEventAppendStampsTime(t *testing.T) {
	l := NewLog(16, nil)
	l.Append(Event{Type: EventWatchdogStall, Detail: "engine 0"})
	evs, _, _ := l.Since(0, 0)
	if len(evs) != 1 || evs[0].Time.IsZero() || evs[0].Seq != 1 {
		t.Fatalf("stamped event = %+v", evs)
	}
	fixed := t0
	l.Append(Event{Type: EventSLOBreach, Time: fixed})
	evs, _, _ = l.Since(1, 0)
	if !evs[0].Time.Equal(fixed) {
		t.Fatalf("explicit time overwritten: %v", evs[0].Time)
	}
}
