// Package telem is the serving stack's windowed telemetry and SLO plane,
// layered on the scheduler's tenant records. Everything internal/sched
// accounts is cumulative-since-boot — the right shape for dashboards that
// rate() on their own, the wrong shape for the questions an operator actually
// asks: what is tenant alice's p99 *right now*, is the error rate *rising*,
// has the service burned its error budget fast enough to page?
//
// A background Sampler answers those: on a fixed tick it reads the
// scheduler's Totals — the service-wide counters and one typed snapshot of
// each tenant record — and stores them in a fixed-memory ring of frames
// spanning one long window. A tenant whose record has not changed since the
// previous tick shares that frame's copy, so an idle tenant costs the ring
// one pointer per frame. Windowed values are then just frame subtraction —
// the rate over the last 10s is (now − frame[10s ago]) ÷ elapsed, and a
// windowed stage summary is sched.StageTotals.Since over the two frames'
// records, the same summarizer every lifetime latency view uses. Nothing in
// the data path changes: the hot path keeps its allocation-free atomic
// counters, and the sampler reads them once per tick from one goroutine,
// holding the scheduler's lock only to copy its tenant table.
//
// On top of the windows sits a multi-window SLO engine (the SRE burn-rate
// idiom): each tenant's SLO — a target p99 for one serving stage, a maximum
// error rate, or both — is evaluated every tick against the short and the
// long window together. A breach needs both windows over target (a brief
// blip inside a healthy long window does not page); a breach clears as soon
// as the short window is back under (recovery is observed quickly). Every
// transition lands in the structured event Log and flips the sampler's
// Degraded verdict, which cohortd folds into /healthz.
package telem

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"cohort"
	"cohort/internal/sched"
	"cohort/internal/wire"
)

// SLO is one tenant objective. The JSON shape is what cohortd's -slo flag
// accepts (a JSON array literal or a file of one).
type SLO struct {
	// Tenant names the tenant the objective binds; "*" (or empty) applies
	// the objective to every tenant the sampler observes.
	Tenant string `json:"tenant"`
	// Stage is the serving stage whose latency the p99 target constrains:
	// queue, sched, compute or wire (default compute).
	Stage string `json:"stage,omitempty"`
	// P99Ms is the stage's target p99 in milliseconds; 0 means no latency
	// objective.
	P99Ms float64 `json:"p99_ms,omitempty"`
	// MaxErrorsPerSec caps the tenant's error rate — transient-fault
	// retries + terminal faults + kills per second; 0 means no error
	// objective.
	MaxErrorsPerSec float64 `json:"max_errors_per_s,omitempty"`
}

// ParseSLOs turns cohortd's -slo flag value into specs: empty means none, a
// value starting with '[' or '{' is parsed as JSON inline (an array of
// specs, or one spec object), anything else is read as a JSON file of the
// same.
func ParseSLOs(v string) ([]SLO, error) {
	v = strings.TrimSpace(v)
	if v == "" {
		return nil, nil
	}
	data := []byte(v)
	if v[0] != '[' && v[0] != '{' {
		b, err := os.ReadFile(v)
		if err != nil {
			return nil, fmt.Errorf("telem: read -slo file: %w", err)
		}
		data = b
	}
	var specs []SLO
	if err := json.Unmarshal(data, &specs); err != nil {
		var one SLO
		if err1 := json.Unmarshal(data, &one); err1 != nil {
			return nil, fmt.Errorf("telem: parse -slo: %w", err)
		}
		specs = []SLO{one}
	}
	for i := range specs {
		if specs[i].Tenant == "" {
			specs[i].Tenant = "*"
		}
		switch specs[i].Stage {
		case "":
			specs[i].Stage = sched.StageCompute
		case sched.StageQueue, sched.StageSched, sched.StageCompute, sched.StageWire:
		default:
			return nil, fmt.Errorf("telem: slo %d: unknown stage %q", i, specs[i].Stage)
		}
		if specs[i].P99Ms < 0 || specs[i].MaxErrorsPerSec < 0 {
			return nil, fmt.Errorf("telem: slo %d: negative objective", i)
		}
		if specs[i].P99Ms == 0 && specs[i].MaxErrorsPerSec == 0 {
			return nil, fmt.Errorf("telem: slo %d: no objective (set p99_ms and/or max_errors_per_s)", i)
		}
	}
	return specs, nil
}

// Config tunes a Sampler.
type Config struct {
	// Source reads the sampled accounting (required): a scheduler's Totals.
	Source func() sched.Totals
	// Tick is the sampling period (default 1s).
	Tick time.Duration
	// Short and Long are the two observation windows (defaults 10s and 5m).
	// Both round up to whole ticks; Long is floored at Short.
	Short, Long time.Duration
	// SLOs are the objectives the engine evaluates each tick.
	SLOs []SLO
	// Events, when non-nil, receives slo_breach/slo_recovery transitions.
	Events *Log
}

// frame is one tick's cumulative view: the scheduler-wide counters and one
// record per tenant, sorted by name. A tenant whose record did not change
// since the previous frame points at that frame's copy.
type frame struct {
	at      time.Time
	sched   sched.SchedStats
	tenants []*sched.TenantTotals
}

// record returns the frame's record for tenant, or nil when the frame
// predates the tenant.
func (f *frame) record(tenant string) *sched.TenantTotals {
	i := sort.Search(len(f.tenants), func(i int) bool { return f.tenants[i].Tenant >= tenant })
	if i < len(f.tenants) && f.tenants[i].Tenant == tenant {
		return f.tenants[i]
	}
	return nil
}

// sloKey names one (spec index, tenant) pair.
type sloKey struct {
	spec   int
	tenant string
}

// sloState is one (spec, tenant) pair's breach state machine.
type sloState struct {
	breach      bool
	since       time.Time
	transitions uint64
}

// Sampler runs the tick loop. Create with New, start with Start, stop with
// Stop; all snapshot accessors (Windows, Status, Degraded) are safe
// for concurrent use and reflect the most recent completed tick.
type Sampler struct {
	cfg           Config
	nShort, nLong int
	stop, done    chan struct{}
	startOnce     sync.Once
	stopOnce      sync.Once
	sampleNs      cohort.LatencyRecorder // wall time per tick, self-observed
	mu            sync.Mutex
	frames        []frame // ring: frame of tick i at i % len; written only by tick
	ticks         uint64  // completed ticks
	states        map[sloKey]*sloState
	breaches      uint64 // cumulative breach transitions
	winDoc        WindowsDoc
	summaries     int // StageTotals.Since calls in the latest tick
	sloDoc        SLODoc
	degraded      string
}

// New builds a sampler over cfg.Source. It registers no metric source: its
// owner may publish the sampler's self-metrics (Metrics), and a Prometheus
// scraper derives windowed rates from the scheduler's own cumulative
// "tenant/<name>" counters. Call Start to begin ticking, or drive tick()
// directly in tests.
func New(cfg Config) *Sampler {
	if cfg.Source == nil {
		panic("telem: Config.Source is required")
	}
	if cfg.Tick <= 0 {
		cfg.Tick = time.Second
	}
	if cfg.Short <= 0 {
		cfg.Short = 10 * time.Second
	}
	if cfg.Long <= 0 {
		cfg.Long = 5 * time.Minute
	}
	for i := range cfg.SLOs {
		if cfg.SLOs[i].Tenant == "" {
			cfg.SLOs[i].Tenant = "*"
		}
		if cfg.SLOs[i].Stage == "" {
			cfg.SLOs[i].Stage = sched.StageCompute
		}
	}
	s := &Sampler{
		cfg:    cfg,
		nShort: ticksIn(cfg.Short, cfg.Tick),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		states: make(map[sloKey]*sloState),
	}
	s.nLong = ticksIn(cfg.Long, cfg.Tick)
	if s.nLong < s.nShort {
		s.nLong = s.nShort
	}
	s.frames = make([]frame, s.nLong+1)
	return s
}

// Metrics is the sampler's self-metrics source, for its owner to register
// (cohortd registers it as "telem"): ticks, tenants in the latest frame,
// breach transitions and the wall time of each tick.
func (s *Sampler) Metrics() []cohort.Metric {
	s.mu.Lock()
	ticks, tenants, breaches := s.ticks, len(s.winDoc.Tenants), s.breaches
	s.mu.Unlock()
	h := s.sampleNs.Snapshot()
	return []cohort.Metric{
		{Name: "telem_ticks", Value: ticks},
		{Name: "telem_tenants", Value: uint64(tenants)},
		{Name: "slo_breaches", Value: breaches},
		{Name: "telem_sample_ns", Histo: &h},
	}
}

// ticksIn rounds d up to whole ticks, floor 1.
func ticksIn(d, tick time.Duration) int {
	n := int((d + tick - 1) / tick)
	if n < 1 {
		n = 1
	}
	return n
}

// Start launches the tick loop. Idempotent.
func (s *Sampler) Start() {
	s.startOnce.Do(func() {
		go func() {
			defer close(s.done)
			tk := time.NewTicker(s.cfg.Tick)
			defer tk.Stop()
			for {
				select {
				case <-s.stop:
					return
				case now := <-tk.C:
					s.tick(now)
				}
			}
		}()
	})
}

// Stop halts the loop. Idempotent; safe without Start.
func (s *Sampler) Stop() {
	s.stopOnce.Do(func() {
		close(s.stop)
		s.startOnce.Do(func() { close(s.done) }) // never started: nothing to join
		<-s.done
	})
}

// tick runs one sampling pass: read, store, derive, evaluate. Exported
// behavior is driven entirely through here, so tests call it with a
// synthetic clock instead of sleeping.
func (s *Sampler) tick(now time.Time) {
	t0 := time.Now()
	tot := s.cfg.Source()
	fr := frame{at: now, sched: tot.Sched, tenants: make([]*sched.TenantTotals, len(tot.Tenants))}
	// Share the previous frame's copy of every unchanged tenant, and with it
	// that tick's lifetime row. Both lists are sorted by name, and the
	// previous document's rows are the previous frame's tenants in order.
	// Only tick writes frames, ticks and winDoc, so it reads them here
	// without the lock.
	var prev []*sched.TenantTotals
	if s.ticks > 0 {
		prev = s.frames[(s.ticks-1)%uint64(len(s.frames))].tenants
	}
	prevRows := s.winDoc.Tenants
	rows := make([]TenantWindows, len(tot.Tenants))
	summaries := 0
	for i, j := 0, 0; i < len(tot.Tenants); i++ {
		cur := &tot.Tenants[i]
		for j < len(prev) && prev[j].Tenant < cur.Tenant {
			j++
		}
		if j < len(prev) && *prev[j] == *cur {
			fr.tenants[i] = prev[j]
			rows[i].Lifetime = prevRows[j].Lifetime
		} else {
			rec := *cur // a copy of its own: the ring must not pin tot's array
			fr.tenants[i] = &rec
			rows[i].Lifetime = rec.Stages.Since(sched.StageTotals{})
			summaries++
		}
	}

	type transition struct {
		typ, tenant, detail string
	}
	var fired []transition

	s.mu.Lock()
	s.frames[s.ticks%uint64(len(s.frames))] = fr
	s.ticks++
	short, long := s.baseFrameLocked(s.nShort), s.baseFrameLocked(s.nLong)

	// Windowed per-tenant views (the /stats/windows document). The
	// scheduler never drops a tenant record, so the latest frame names
	// every tenant it has seen. A record that is the same copy in the
	// current frame and in both base frames has not changed over either
	// window: its rates and stage summaries are zero, with nothing to
	// compute.
	shortSec, longSec := fr.at.Sub(short.at).Seconds(), fr.at.Sub(long.at).Seconds()
	for i, cur := range fr.tenants {
		rows[i].Tenant = cur.Tenant
		bs, bl := short.record(cur.Tenant), long.record(cur.Tenant)
		if cur == bs && cur == bl {
			rows[i].Short, rows[i].Long = WindowView{Seconds: shortSec}, WindowView{Seconds: longSec}
			continue
		}
		rows[i].Short, rows[i].Long = tenantView(cur, bs, shortSec), tenantView(cur, bl, longSec)
		summaries += 2
	}
	s.summaries = summaries
	doc := WindowsDoc{
		At:      now,
		TickMs:  float64(s.cfg.Tick) / float64(time.Millisecond),
		ShortMs: float64(s.nShort) * float64(s.cfg.Tick) / float64(time.Millisecond),
		LongMs:  float64(s.nLong) * float64(s.cfg.Tick) / float64(time.Millisecond),
		Ticks:   s.ticks,
		Service: ServiceWindows{
			Short: serviceView(&fr, short),
			Long:  serviceView(&fr, long),
		},
		Tenants: rows,
	}
	s.winDoc = doc

	// SLO evaluation: each (spec, tenant) pair gets a burn-rate verdict over
	// both windows.
	slo := SLODoc{
		At: now, TickMs: doc.TickMs, ShortMs: doc.ShortMs, LongMs: doc.LongMs,
	}
	var degraded []string
	for si, spec := range s.cfg.SLOs {
		targets := doc.Tenants
		if spec.Tenant != "*" {
			// A tenant the scheduler has not seen yet gets an all-zero row.
			row := TenantWindows{Tenant: spec.Tenant, Short: WindowView{Seconds: shortSec}, Long: WindowView{Seconds: longSec}}
			i := sort.Search(len(rows), func(i int) bool { return rows[i].Tenant >= spec.Tenant })
			if i < len(rows) && rows[i].Tenant == spec.Tenant {
				row = rows[i]
			}
			targets = []TenantWindows{row}
		}
		for i := range targets {
			t := targets[i].Tenant
			row := evaluate(&targets[i], spec, s.stateLocked(si, t, now), now)
			if row.State == "breach" {
				degraded = append(degraded, fmt.Sprintf("tenant %s: %s", t, row.Reason))
			}
			if row.transitioned {
				typ := EventSLORecovery
				if row.State == "breach" {
					typ = EventSLOBreach
					s.breaches++
				}
				fired = append(fired, transition{typ: typ, tenant: t, detail: row.Reason})
			}
			slo.SLOs = append(slo.SLOs, row.SLOStatus)
		}
	}
	sort.Slice(slo.SLOs, func(i, j int) bool {
		a, b := slo.SLOs[i], slo.SLOs[j]
		if a.Tenant != b.Tenant {
			return a.Tenant < b.Tenant
		}
		return a.Stage < b.Stage
	})
	slo.Degraded = strings.Join(degraded, "; ")
	s.sloDoc = slo
	s.degraded = slo.Degraded
	s.mu.Unlock()

	// Event-log work happens outside s.mu (the log takes its own lock).
	if s.cfg.Events != nil {
		for _, tr := range fired {
			s.cfg.Events.Append(Event{Time: now, Type: tr.typ, Tenant: tr.tenant, Detail: tr.detail})
		}
	}
	s.sampleNs.Observe(uint64(time.Since(t0)))
}

// baseFrameLocked returns the frame n ticks before the latest one, clamped
// to the oldest frame the ring still holds (at startup a window covers only
// what has been observed). Caller holds s.mu and has stored >= 1 frame.
func (s *Sampler) baseFrameLocked(n int) *frame {
	idx := int64(s.ticks) - 1 - int64(n)
	earliest := int64(0)
	if int64(s.ticks) > int64(len(s.frames)) {
		earliest = int64(s.ticks) - int64(len(s.frames))
	}
	if idx < earliest {
		idx = earliest
	}
	return &s.frames[uint64(idx)%uint64(len(s.frames))]
}

// delta is the windowed increase of one cumulative counter, clamped at 0 so
// a restarted source cannot produce a negative rate.
func delta(cur, base uint64) uint64 {
	if cur < base {
		return 0
	}
	return cur - base
}

// WindowView is one tenant's derived view over one window: rolling rates
// from the persistent tenant counters plus windowed stage summaries.
// Seconds is the span the window actually covers (shorter than the nominal
// window until enough ticks have accumulated).
type WindowView struct {
	Seconds              float64     `json:"seconds"`
	BlocksPerSec         float64     `json:"blocks_per_s"`
	WordsInPerSec        float64     `json:"words_in_per_s"`
	WordsOutPerSec       float64     `json:"words_out_per_s"`
	RetriesPerSec        float64     `json:"retries_per_s"`
	TerminalFaultsPerSec float64     `json:"terminal_faults_per_s"`
	KillsPerSec          float64     `json:"kills_per_s"`
	RejectsPerSec        float64     `json:"rejects_per_s"`
	ErrorsPerSec         float64     `json:"errors_per_s"`
	Stages               wire.Stages `json:"stages"`
}

// tenantView derives a tenant's view over a window of the given span from its
// current record c and the window's base record b (nil when the base frame
// predates the tenant).
func tenantView(c, b *sched.TenantTotals, seconds float64) WindowView {
	if b == nil {
		b = &sched.TenantTotals{}
	}
	v := WindowView{Seconds: seconds}
	if v.Seconds > 0 {
		rate := func(c, b uint64) float64 { return float64(delta(c, b)) / v.Seconds }
		v.BlocksPerSec = rate(c.Blocks, b.Blocks)
		v.WordsInPerSec = rate(c.WordsIn, b.WordsIn)
		v.WordsOutPerSec = rate(c.WordsOut, b.WordsOut)
		v.RetriesPerSec = rate(c.Retries, b.Retries)
		v.TerminalFaultsPerSec = rate(c.TerminalFaults, b.TerminalFaults)
		v.KillsPerSec = rate(c.Kills, b.Kills)
		v.RejectsPerSec = rate(c.Rejected, b.Rejected)
		v.ErrorsPerSec = v.RetriesPerSec + v.TerminalFaultsPerSec + v.KillsPerSec
	}
	v.Stages = c.Stages.Since(b.Stages)
	return v
}

// ServiceView is the scheduler-wide windowed rate view.
type ServiceView struct {
	Seconds               float64 `json:"seconds"`
	DecisionsPerSec       float64 `json:"decisions_per_s"`
	AdmittedPerSec        float64 `json:"admitted_per_s"`
	RetiredPerSec         float64 `json:"retired_per_s"`
	RejectedPerSec        float64 `json:"rejected_per_s"`
	TransientFaultsPerSec float64 `json:"transient_faults_per_s"`
	TerminalFaultsPerSec  float64 `json:"terminal_faults_per_s"`
	KillsPerSec           float64 `json:"kills_per_s"`
}

func serviceView(cur, base *frame) ServiceView {
	v := ServiceView{Seconds: cur.at.Sub(base.at).Seconds()}
	if v.Seconds <= 0 {
		return v
	}
	c, b := &cur.sched, &base.sched
	rate := func(c, b uint64) float64 { return float64(delta(c, b)) / v.Seconds }
	v.DecisionsPerSec = rate(c.Decisions, b.Decisions)
	v.AdmittedPerSec = rate(c.Admitted, b.Admitted)
	v.RetiredPerSec = rate(c.Retired, b.Retired)
	v.RejectedPerSec = rate(c.Rejected, b.Rejected)
	v.TransientFaultsPerSec = rate(c.TransientFaults, b.TransientFaults)
	v.TerminalFaultsPerSec = rate(c.TerminalFaults, b.TerminalFaults)
	v.KillsPerSec = rate(c.Kills, b.Kills)
	return v
}

// ServiceWindows pairs the scheduler-wide view over both windows.
type ServiceWindows struct {
	Short ServiceView `json:"short"`
	Long  ServiceView `json:"long"`
}

// TenantWindows is one tenant's row in /stats/windows. Lifetime summarizes
// every stage sample the tenant has filed since its first registration; it
// persists across the tenant's session churn.
type TenantWindows struct {
	Tenant   string      `json:"tenant"`
	Short    WindowView  `json:"short"`
	Long     WindowView  `json:"long"`
	Lifetime wire.Stages `json:"lifetime"`
}

// WindowsDoc is the /stats/windows document: per-tenant rolling rates and
// windowed stage summaries over the short and long windows, each tenant's
// lifetime stage summary, plus the service-wide view.
type WindowsDoc struct {
	At      time.Time       `json:"at"`
	TickMs  float64         `json:"tick_ms"`
	ShortMs float64         `json:"short_ms"`
	LongMs  float64         `json:"long_ms"`
	Ticks   uint64          `json:"ticks"`
	Service ServiceWindows  `json:"service"`
	Tenants []TenantWindows `json:"tenants"`
}

// Windows snapshots the most recent tick's windowed view.
func (s *Sampler) Windows() WindowsDoc {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.winDoc
}

// SLOStatus is one (objective, tenant) row in /stats/slo.
type SLOStatus struct {
	Tenant            string  `json:"tenant"`
	Stage             string  `json:"stage"`
	TargetP99Ms       float64 `json:"target_p99_ms,omitempty"`
	MaxErrorsPerSec   float64 `json:"max_errors_per_s,omitempty"`
	ShortP99Ms        float64 `json:"short_p99_ms"`
	LongP99Ms         float64 `json:"long_p99_ms"`
	ShortErrorsPerSec float64 `json:"short_errors_per_s"`
	LongErrorsPerSec  float64 `json:"long_errors_per_s"`
	// BurnShort/BurnLong are the error-budget burn rates (observed error
	// rate over allowed); >= 1 means the budget is burning.
	BurnShort float64 `json:"burn_short,omitempty"`
	BurnLong  float64 `json:"burn_long,omitempty"`
	State     string  `json:"state"` // "ok" or "breach"
	Reason    string  `json:"reason,omitempty"`
	// Since is when the current state was entered; Transitions counts state
	// flips over the sampler's life.
	Since       time.Time `json:"since"`
	Transitions uint64    `json:"transitions"`
}

// SLODoc is the /stats/slo document.
type SLODoc struct {
	At       time.Time   `json:"at"`
	TickMs   float64     `json:"tick_ms"`
	ShortMs  float64     `json:"short_ms"`
	LongMs   float64     `json:"long_ms"`
	Degraded string      `json:"degraded,omitempty"`
	SLOs     []SLOStatus `json:"slos"`
}

// Status snapshots the most recent tick's SLO evaluation.
func (s *Sampler) Status() SLODoc {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sloDoc
}

// Degraded returns the combined breach reason, or "" when every objective
// holds — the string cohortd folds into /healthz as a degraded row.
func (s *Sampler) Degraded() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// stateLocked returns (creating on first use) the breach state machine for
// spec si applied to tenant t.
func (s *Sampler) stateLocked(si int, t string, now time.Time) *sloState {
	key := sloKey{si, t}
	st, ok := s.states[key]
	if !ok {
		st = &sloState{since: now}
		s.states[key] = st
	}
	return st
}

// evalRow is evaluate's result: the status row plus whether the state
// flipped this tick.
type evalRow struct {
	SLOStatus
	transitioned bool
}

// evaluate applies one spec to one tenant's windowed views and
// advances its breach state machine. Multi-window semantics: a breach is
// entered only when the short AND the long window are both over target
// (latency) or both burning budget at >= 1x (errors); it exits as soon as
// the short window is clear. The long window keeps one noisy tick from
// paging; the short window keeps recovery detection fast.
func evaluate(w *TenantWindows, spec SLO, st *sloState, now time.Time) evalRow {
	row := evalRow{SLOStatus: SLOStatus{
		Tenant: w.Tenant, Stage: spec.Stage,
		TargetP99Ms: spec.P99Ms, MaxErrorsPerSec: spec.MaxErrorsPerSec,
	}}
	sv, lv := &w.Short, &w.Long
	stagePick := func(v *WindowView) wire.StageTiming {
		switch spec.Stage {
		case sched.StageQueue:
			return v.Stages.Queue
		case sched.StageSched:
			return v.Stages.Sched
		case sched.StageWire:
			return v.Stages.Wire
		default:
			return v.Stages.Compute
		}
	}
	row.ShortP99Ms = stagePick(sv).P99Ns / 1e6
	row.LongP99Ms = stagePick(lv).P99Ns / 1e6
	row.ShortErrorsPerSec = sv.ErrorsPerSec
	row.LongErrorsPerSec = lv.ErrorsPerSec

	var latShort, latLong, errShort, errLong bool
	var reasons []string
	if spec.P99Ms > 0 {
		latShort = row.ShortP99Ms > spec.P99Ms
		latLong = row.LongP99Ms > spec.P99Ms
		if latShort {
			reasons = append(reasons, fmt.Sprintf("%s p99 %.3fms > target %.3fms",
				spec.Stage, row.ShortP99Ms, spec.P99Ms))
		}
	}
	if spec.MaxErrorsPerSec > 0 {
		row.BurnShort = row.ShortErrorsPerSec / spec.MaxErrorsPerSec
		row.BurnLong = row.LongErrorsPerSec / spec.MaxErrorsPerSec
		errShort = row.BurnShort >= 1
		errLong = row.BurnLong >= 1
		if errShort {
			reasons = append(reasons, fmt.Sprintf("error rate %.3f/s > budget %.3f/s (burn %.1fx)",
				row.ShortErrorsPerSec, spec.MaxErrorsPerSec, row.BurnShort))
		}
	}

	was := st.breach
	if !st.breach {
		if (latShort && latLong) || (errShort && errLong) {
			st.breach = true
		}
	} else if !latShort && !errShort {
		st.breach = false
	}
	if st.breach != was {
		st.since = now
		st.transitions++
		row.transitioned = true
	}
	row.Since, row.Transitions = st.since, st.transitions
	if st.breach {
		row.State = "breach"
		row.Reason = strings.Join(reasons, "; ")
		if row.Reason == "" {
			// Still in breach on the long window alone (short cleared last
			// tick is an exit, so this is the both-windows-hot case with a
			// momentarily quiet short window).
			row.Reason = "breach pending short-window recovery"
		}
	} else {
		row.State = "ok"
		if row.transitioned {
			row.Reason = "short window clear"
		}
	}
	return row
}
