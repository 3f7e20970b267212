// Package sched is the multi-tenant serving layer over the native Cohort
// runtime: a session manager plus a weighted-fair scheduler that
// time-multiplexes a fixed pool of engine workers across tenant sessions.
//
// The paper's software-flexibility claim (§4.3/§4.4) is that because Cohort
// queues are ordinary shared memory, the OS — not hardware — can schedule,
// share and virtualize accelerators across processes: cohort_register binds a
// process's queue pair to an engine, and re-registering swaps the engine's
// CSR state to another process. This package is that claim made concrete in
// software. Each tenant Registers a session — an (in, out) Fifo pair, an
// accelerator instance carrying the tenant's CSR configuration, a weight and
// an optional block quota — and a pool of engine workers serves sessions in
// block-granular quanta picked by stride scheduling (each session accrues
// virtual time in blocks÷weight; the runnable session with the least virtual
// time runs next).
//
// Properties the scheduler maintains:
//
//   - Weighted fairness: backlogged sessions complete blocks in proportion
//     to their weights (a 2:1 weight pair converges to a 2:1 block ratio).
//   - No starvation: a backlogged session's virtual time eventually falls
//     below every saturating competitor's, so it is served every few
//     scheduling rounds no matter how aggressive the others are.
//   - Per-tenant backpressure: a session is only dispatched when its output
//     queue has room for at least one block, so one slow consumer parks its
//     own session instead of wedging an engine worker; a full input queue
//     likewise pushes back on that producer alone (the daemon stops reading
//     that connection's socket).
//   - Admission control: Register fails once MaxSessions sessions are live.
//   - Clean teardown: closing a session's input queue (Fifo.Close) lets the
//     scheduler finish every complete block, drop trailing partial words,
//     close the output queue, and retire the session, waking anyone blocked
//     on Done.
package sched

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cohort"
	"cohort/internal/wire"
)

// Sentinel errors surfaced by Register and Session.Err.
var (
	// ErrClosed: the scheduler has been closed.
	ErrClosed = errors.New("sched: scheduler closed")
	// ErrTooManySessions: admission control rejected the registration.
	ErrTooManySessions = errors.New("sched: too many sessions")
	// ErrQuotaExceeded: the session consumed its block quota and was retired.
	ErrQuotaExceeded = errors.New("sched: block quota exceeded")
	// ErrKilled: the session was torn down by Kill (e.g. its connection
	// dropped) before its stream finished.
	ErrKilled = errors.New("sched: session killed")
	// ErrDraining: the scheduler is draining for a rolling restart — it no
	// longer admits sessions but keeps serving the ones in flight until they
	// flush their Done frames.
	ErrDraining = errors.New("sched: draining")
)

// Config tunes a Scheduler. The zero value serves with one engine worker,
// 32-block quanta, 64-session admission and 1024-word session queues.
type Config struct {
	// Engines is the worker-pool size: how many accelerator engines the
	// service multiplexes sessions onto (default 1).
	Engines int
	// Quantum is the largest number of blocks one scheduling decision serves
	// before the engine re-arbitrates (default 32), fixed for the scheduler's
	// life. Smaller quanta interleave finer; larger quanta amortize each
	// decision's cost over more work.
	Quantum int
	// MaxSessions bounds concurrently live sessions (default 64).
	MaxSessions int
	// QueueCap is the default per-direction session queue capacity in words
	// (default 1024); SessionConfig.QueueCap overrides per session.
	QueueCap int
	// Registry, when non-nil, receives a "sched" source for the scheduler's
	// own counters plus one tenant-labeled "tenant/<name>" source per tenant
	// ever registered (events.go); all unregister at Close.
	Registry *cohort.Registry
	// Trace, when non-nil, records scheduler activity into the flight
	// recorder's rings: admit/retire instants on the "sched" track and
	// per-decision serve spans on one "sched/w<i>" track per worker.
	Trace *cohort.FlightRecorder
	// Retries is the per-block retry budget for transient accelerator faults
	// (cohort.IsTransient): a faulting block is re-run up to Retries times
	// before the fault is treated as terminal and the session is retired.
	// Unmarked errors retire the session immediately regardless. Default 0 —
	// every fault is terminal, the pre-fault-model behavior.
	Retries int
	// RetryBackoff is the pause before the first retry, doubling per attempt
	// (capped at 64×). Zero retries immediately. The pause runs on the worker
	// serving the session, so a retry storm costs that tenant its own quantum
	// time — other sessions keep their shares.
	RetryBackoff time.Duration
	// LatencySample is the stage-attribution sampling stride: each worker
	// stamps one scheduling quantum in every LatencySample at its stage
	// boundaries (queue wait, dispatch, compute, egress) and files the deltas
	// into the per-session and per-tenant histograms behind the lifetime
	// rows of /stats/windows and DoneReply.Timing. Default 64; negative
	// disables attribution entirely.
	LatencySample int
	// Events, when non-nil, receives the scheduler's state transitions —
	// session kills, terminal accelerator faults, admission rejections — for
	// the structured event plane (a *telem.Log satisfies it). Only failure
	// paths emit; the zero-alloc serving steady state never touches it.
	Events EventSink
}

// SessionConfig describes one tenant registration.
type SessionConfig struct {
	// Tenant names the owning tenant (shown in metrics labels, traces and
	// /sessions; need not be unique — a tenant may hold several sessions).
	Tenant string
	// Accel is the session's accelerator instance. Sessions must not share
	// instances: the accelerator carries the tenant's CSR state and is
	// invoked by whichever worker currently serves the session (never by two
	// at once).
	Accel cohort.Accelerator
	// CSR, when non-nil, is passed to Accel.Configure at registration — the
	// per-process CSR image that cohort_register installs.
	CSR []byte
	// Weight is the session's fair-share weight (default 1; must be >= 0).
	Weight int
	// Quota, when non-zero, caps the total blocks the session may consume;
	// on exhaustion the session is retired with ErrQuotaExceeded.
	Quota uint64
	// QueueCap overrides Config.QueueCap for this session's two queues.
	QueueCap int
	// In and Out, when non-nil, are caller-supplied queues — the tenant's
	// existing Fifo pair, Table 1's queue descriptors handed to
	// cohort_register. When nil, fresh queues of QueueCap words are
	// allocated. A supplied In may already hold words (or even be closed):
	// the session starts with that backlog.
	In, Out *cohort.Fifo[cohort.Word]
}

// SessionStats is a snapshot of one session's counters.
type SessionStats struct {
	Blocks       uint64 // accelerator blocks completed
	WordsIn      uint64 // words consumed from the session input queue
	WordsOut     uint64 // words produced into the session output queue
	Quanta       uint64 // scheduling quanta in which the session ran
	Switches     uint64 // times a worker swapped onto this session
	DroppedWords uint64 // trailing partial-block words dropped at end of stream
	Retries      uint64 // transient-fault retry attempts spent on this session
	Recovered    uint64 // blocks that completed after one or more retries
}

// SessionInfo is one live session's row in the /sessions JSON document.
type SessionInfo struct {
	ID           uint64  `json:"id"`
	Tenant       string  `json:"tenant"`
	Accel        string  `json:"accel"`
	Weight       int     `json:"weight"`
	Quota        uint64  `json:"quota,omitempty"`
	Pass         float64 `json:"pass"`
	Blocks       uint64  `json:"blocks"`
	WordsIn      uint64  `json:"words_in"`
	WordsOut     uint64  `json:"words_out"`
	Quanta       uint64  `json:"quanta"`
	Switches     uint64  `json:"switches"`
	DroppedWords uint64  `json:"dropped_words,omitempty"`
	Retries      uint64  `json:"retries,omitempty"`
	Recovered    uint64  `json:"recovered,omitempty"`
	InQueued     int     `json:"in_queued"`
	OutQueued    int     `json:"out_queued"`
	InClosed     bool    `json:"in_closed,omitempty"`
	Err          string  `json:"err,omitempty"`
	// Admitted is when Register accepted the session (RFC 3339 in JSON);
	// AgeMs is the same instant as an age relative to the snapshot.
	Admitted time.Time `json:"admitted"`
	AgeMs    float64   `json:"age_ms"`
	// Latency is the session's sampled stage summary (stage quantiles in
	// nanoseconds); stages with zero samples render with samples=0.
	Latency *wire.Stages `json:"latency,omitempty"`
}

// Session is one tenant's live binding to the service: a queue pair, an
// accelerator, a weight and the scheduler bookkeeping around them. Producers
// push words into In and read results from Out exactly as they would around a
// dedicated Engine — the scheduling is invisible apart from timing.
type Session struct {
	id     uint64
	tenant string
	weight int
	quota  uint64
	acc    cohort.Accelerator
	in     *cohort.Fifo[cohort.Word]
	out    *cohort.Fifo[cohort.Word]
	inW    int
	outW   int
	buf    []cohort.Word // input staging: one quantum of blocks per drain
	sch    *Scheduler

	// Doorbells the queues ring on publication (Register attaches them):
	// the socket pumps park on these instead of polling, so a quantum's
	// results reach the pump the moment they publish.
	outBell *cohort.Bell // Out's push side: results published, or Out closed
	inBell  *cohort.Bell // In's pop side: input consumed, room freed

	// Scheduler state, guarded by Scheduler.mu.
	pass    float64
	serving bool
	retired bool

	killed atomic.Bool
	done   chan struct{}
	errp   atomic.Pointer[error]

	blocks    atomic.Uint64
	wordsIn   atomic.Uint64
	wordsOut  atomic.Uint64
	quanta    atomic.Uint64
	switches  atomic.Uint64
	dropped   atomic.Uint64
	retries   atomic.Uint64
	recovered atomic.Uint64

	// ten is the tenant's lifetime record (events.go): every counter above
	// but quanta, switches and dropped is bumped there too.
	ten *tenant

	// Latency attribution (latency.go): the session's own stage histograms
	// and the ingress/egress stamps the socket pumps exchange with the
	// scheduler.
	admitted  time.Time
	lat       stageSet
	ingressNs atomic.Uint64
	egressNs  atomic.Uint64

	// Precomputed so the serve loop never formats.
	serveSpan string
}

// ID returns the scheduler-assigned session id.
func (ss *Session) ID() uint64 { return ss.id }

// Tenant returns the registering tenant's name.
func (ss *Session) Tenant() string { return ss.tenant }

// In returns the session's input queue. The registering tenant is its sole
// producer.
func (ss *Session) In() *cohort.Fifo[cohort.Word] { return ss.in }

// Out returns the session's output queue. The registering tenant is its sole
// consumer.
func (ss *Session) Out() *cohort.Fifo[cohort.Word] { return ss.out }

// CloseSend signals end of stream on the session input (Fifo.Close): the
// scheduler finishes every complete block already queued, drops trailing
// partial words, closes Out, and retires the session. Call from the producer
// goroutine after the last push.
func (ss *Session) CloseSend() { ss.in.Close() }

// Kill forcibly tears the session down: queued input is discarded, Out is
// closed, and the session retires with ErrKilled (unless its stream already
// finished cleanly). Safe from any goroutine; idempotent.
func (ss *Session) Kill() {
	ss.killed.Store(true)
	ss.sch.bell.Ring()
}

// Done returns a channel closed when the session has fully retired: it has
// left the session table and its output queue is closed.
func (ss *Session) Done() <-chan struct{} { return ss.done }

// OutReady returns Out's push doorbell: it rings whenever the scheduler
// publishes results to Out or closes it. A consumer with an empty Out parks
// on it (Arm, look at Out again, wait on C, Disarm) instead of polling; rings
// coalesce, so drain Out fully on every wakeup. Detached at retirement,
// after Out closes.
func (ss *Session) OutReady() *cohort.Bell { return ss.outBell }

// InSpace returns In's pop doorbell: it rings whenever the scheduler
// consumes queued input, freeing room. A producer blocked on a full In parks
// on it the same way. Detached at retirement.
func (ss *Session) InSpace() *cohort.Bell { return ss.inBell }

// Err returns why the session retired: nil for a clean end of stream (or a
// still-live session), ErrKilled, ErrQuotaExceeded, or the accelerator's
// terminal processing error.
func (ss *Session) Err() error {
	if p := ss.errp.Load(); p != nil {
		return *p
	}
	return nil
}

// fail records the session's terminal error; the first error wins.
func (ss *Session) fail(err error) {
	ss.errp.CompareAndSwap(nil, &err)
}

// Stats snapshots the session's counters.
func (ss *Session) Stats() SessionStats {
	return SessionStats{
		Blocks:       ss.blocks.Load(),
		WordsIn:      ss.wordsIn.Load(),
		WordsOut:     ss.wordsOut.Load(),
		Quanta:       ss.quanta.Load(),
		Switches:     ss.switches.Load(),
		DroppedWords: ss.dropped.Load(),
		Retries:      ss.retries.Load(),
		Recovered:    ss.recovered.Load(),
	}
}

// Scheduler multiplexes tenant sessions onto a fixed pool of engine workers.
// Create with New; admit tenants with Register; stop with Close.
type Scheduler struct {
	cfg  Config
	stop chan struct{}
	// bell is the pool's doorbell: every session's In rings it on push (and
	// Close) and its Out on pop (room for a backpressured session). Idle
	// workers park on it.
	bell *cohort.Bell
	wg   sync.WaitGroup
	once sync.Once

	schedTrk   *cohort.TraceTrack   // admit/retire instants; guarded by mu
	workerTrks []*cohort.TraceTrack // one per worker, single-writer each

	mu       sync.Mutex
	closed   bool
	draining bool
	nextID   uint64
	vtime    float64 // virtual time: pass of the most recently dispatched session
	sessions map[uint64]*Session

	// drained closes (via drainedOnce) when the scheduler is draining and the
	// last live session has retired — the rolling-restart barrier cohortd's
	// SIGTERM path waits on. Close() closes it too, so a waiter never hangs
	// on a scheduler that was torn down instead of drained.
	drained      chan struct{}
	drainedOnce  sync.Once
	drainRejects atomic.Uint64

	// tenants maps tenant name → its lifetime record (events.go). Entries
	// are never removed: they accumulate across session churn and
	// unregister only at Close. Guarded by mu.
	tenants map[string]*tenant

	// workerOps[i] counts worker i's scheduling-loop passes — the monotone
	// progress counter WatchWorkers feeds the stall watchdog. A parked worker
	// makes no passes.
	workerOps []atomic.Uint64

	decisions atomic.Uint64
	swaps     atomic.Uint64
	admitted  atomic.Uint64
	retirals  atomic.Uint64
}

// SchedStats is a snapshot of the scheduler's service-wide counters — the
// containment scoreboard the chaos harness asserts over. Rejected and the
// four fault counters are sums over the tenant records.
type SchedStats struct {
	Decisions       uint64 // scheduling decisions dispatched
	Swaps           uint64 // worker swaps between sessions
	Admitted        uint64 // sessions admitted
	Rejected        uint64 // registrations refused by admission control
	Retired         uint64 // sessions fully retired
	Live            uint64 // sessions currently live
	TransientFaults uint64 // transient accelerator faults retried
	Recovered       uint64 // blocks completed after one or more retries
	TerminalFaults  uint64 // sessions retired by a terminal accelerator fault
	Kills           uint64 // sessions retired by Kill
}

// Stats snapshots the scheduler's counters.
func (s *Scheduler) Stats() SchedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

// statsLocked is Stats with s.mu held. Tenant records are never removed, so
// the sums never go backwards.
func (s *Scheduler) statsLocked() SchedStats {
	st := SchedStats{
		Decisions: s.decisions.Load(),
		Swaps:     s.swaps.Load(),
		Admitted:  s.admitted.Load(),
		Retired:   s.retirals.Load(),
		Live:      uint64(len(s.sessions)),
	}
	for _, t := range s.tenants {
		st.Rejected += t.rejected.Load()
		st.TransientFaults += t.retries.Load()
		st.Recovered += t.recovered.Load()
		st.TerminalFaults += t.terminal.Load()
		st.Kills += t.kills.Load()
	}
	return st
}

// Totals is one read of the scheduler's accounting: its service-wide
// counters and a snapshot of every tenant's record, sorted by tenant name.
type Totals struct {
	Sched   SchedStats
	Tenants []TenantTotals
}

// Totals snapshots the scheduler's accounting. It holds s.mu only to sum
// the counters and copy the tenant table, and snapshots the records after
// releasing it, so a reader never holds up pick with histogram work.
func (s *Scheduler) Totals() Totals {
	s.mu.Lock()
	tot := Totals{Sched: s.statsLocked()}
	recs := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		recs = append(recs, t)
	}
	s.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool { return recs[i].name < recs[j].name })
	tot.Tenants = make([]TenantTotals, len(recs))
	for i, t := range recs {
		tot.Tenants[i] = t.totals()
	}
	return tot
}

// New starts a scheduler with cfg's worker pool. Close it when done.
func New(cfg Config) *Scheduler {
	if cfg.Engines < 1 {
		cfg.Engines = 1
	}
	if cfg.Quantum < 1 {
		cfg.Quantum = 32
	}
	if cfg.MaxSessions < 1 {
		cfg.MaxSessions = 64
	}
	if cfg.QueueCap < 1 {
		cfg.QueueCap = 1024
	}
	if cfg.LatencySample == 0 {
		cfg.LatencySample = 64
	}
	s := &Scheduler{
		cfg:       cfg,
		stop:      make(chan struct{}),
		bell:      cohort.NewBell(),
		drained:   make(chan struct{}),
		sessions:  make(map[uint64]*Session),
		tenants:   make(map[string]*tenant),
		workerOps: make([]atomic.Uint64, cfg.Engines),
	}
	if cfg.Trace != nil {
		s.schedTrk = cfg.Trace.Track("sched")
		s.workerTrks = make([]*cohort.TraceTrack, cfg.Engines)
		for i := range s.workerTrks {
			s.workerTrks[i] = cfg.Trace.Track(fmt.Sprintf("sched/w%d", i))
		}
	}
	if cfg.Registry != nil {
		cfg.Registry.Register("sched", func() []cohort.Metric {
			s.mu.Lock()
			st := s.statsLocked()
			draining := uint64(0)
			if s.draining {
				draining = 1
			}
			s.mu.Unlock()
			return []cohort.Metric{
				{Name: "draining", Value: draining},
				{Name: "drain_rejected", Value: s.drainRejects.Load()},
				{Name: "decisions", Value: st.Decisions},
				{Name: "swaps", Value: st.Swaps},
				{Name: "admitted", Value: st.Admitted},
				{Name: "rejected", Value: st.Rejected},
				{Name: "retired", Value: st.Retired},
				{Name: "sessions", Value: st.Live},
				{Name: "transient_faults", Value: st.TransientFaults},
				{Name: "recovered", Value: st.Recovered},
				{Name: "terminal_faults", Value: st.TerminalFaults},
				{Name: "kills", Value: st.Kills},
			}
		})
	}
	for i := 0; i < cfg.Engines; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
	return s
}

// Register admits a tenant session — the service-level cohort_register. It
// allocates the session's queue pair, installs the CSR configuration, joins
// the session at the scheduler's current virtual time (so it competes fairly
// from its first block, with no credit for its idle past), and accounts it
// to its tenant's record.
func (s *Scheduler) Register(cfg SessionConfig) (*Session, error) {
	if cfg.Accel == nil {
		return nil, fmt.Errorf("sched: register %q: nil accelerator", cfg.Tenant)
	}
	if cfg.Accel.InWords() < 1 || cfg.Accel.OutWords() < 0 {
		return nil, fmt.Errorf("sched: register %q: accelerator %s has invalid block ratio %d:%d",
			cfg.Tenant, cfg.Accel.Name(), cfg.Accel.InWords(), cfg.Accel.OutWords())
	}
	if cfg.Weight < 0 {
		return nil, fmt.Errorf("sched: register %q: negative weight %d", cfg.Tenant, cfg.Weight)
	}
	if cfg.Weight == 0 {
		cfg.Weight = 1
	}
	qcap := cfg.QueueCap
	if qcap < 1 {
		qcap = s.cfg.QueueCap
	}
	if qcap < cfg.Accel.InWords() || (cfg.Accel.OutWords() > 0 && qcap < cfg.Accel.OutWords()) {
		return nil, fmt.Errorf("sched: register %q: queue capacity %d below block size", cfg.Tenant, qcap)
	}
	if cfg.CSR != nil {
		if err := cfg.Accel.Configure(cfg.CSR); err != nil {
			return nil, fmt.Errorf("sched: configure %q: %w", cfg.Tenant, err)
		}
	}
	in, out := cfg.In, cfg.Out
	if in == nil {
		var err error
		if in, err = cohort.NewFifo[cohort.Word](qcap); err != nil {
			return nil, err
		}
	}
	if out == nil {
		var err error
		if out, err = cohort.NewFifo[cohort.Word](qcap); err != nil {
			return nil, err
		}
	}
	if in.Cap() < cfg.Accel.InWords() || (cfg.Accel.OutWords() > 0 && out.Cap() < cfg.Accel.OutWords()) {
		return nil, fmt.Errorf("sched: register %q: supplied queue capacity below block size", cfg.Tenant)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.draining {
		live := len(s.sessions)
		s.drainRejects.Add(1)
		s.mu.Unlock()
		return nil, fmt.Errorf("%w (%d sessions flushing)", ErrDraining, live)
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.tenantLocked(cfg.Tenant).rejected.Add(1)
		s.mu.Unlock()
		err := fmt.Errorf("%w (%d live, max %d)", ErrTooManySessions, s.cfg.MaxSessions, s.cfg.MaxSessions)
		s.emit(eventAdmissionReject, cfg.Tenant, 0, err.Error())
		return nil, err
	}
	s.nextID++
	ss := &Session{
		id: s.nextID, tenant: cfg.Tenant, weight: cfg.Weight, quota: cfg.Quota,
		acc: cfg.Accel, in: in, out: out,
		inW: cfg.Accel.InWords(), outW: cfg.Accel.OutWords(),
		buf:     make([]cohort.Word, s.cfg.Quantum*cfg.Accel.InWords()),
		sch:     s,
		pass:    s.vtime,
		done:    make(chan struct{}),
		outBell: cohort.NewBell(),
		inBell:  cohort.NewBell(),
		ten:     s.tenantLocked(cfg.Tenant),
	}
	ss.serveSpan = fmt.Sprintf("serve:%s#%d", ss.tenant, ss.id)
	ss.admitted = time.Now()
	// Doorbells: pushes (and CloseSend) into In and room freed in Out wake an
	// idle worker, whoever the producer is; results in Out and room freed in
	// In wake the session's own pumps.
	in.OnPush(s.bell)
	out.OnPop(s.bell)
	out.OnPush(ss.outBell)
	in.OnPop(ss.inBell)
	s.sessions[ss.id] = ss
	s.admitted.Add(1)
	if s.schedTrk != nil {
		s.schedTrk.Instant("admit:" + ss.tenant)
	}
	s.mu.Unlock()
	s.bell.Ring() // a supplied In may already hold work
	return ss, nil
}

// Kill forcibly tears down the live session with the given id (see
// Session.Kill) and reports whether a session with that id was live. No
// daemon path calls it: the wire-level tests use it to end a served session
// whose Session value they do not hold.
func (s *Scheduler) Kill(id uint64) bool {
	s.mu.Lock()
	ss := s.sessions[id]
	s.mu.Unlock()
	if ss == nil {
		return false
	}
	ss.Kill()
	return true
}

// Drain puts the scheduler into drain mode for a rolling restart: Register
// refuses new sessions with ErrDraining while every in-flight session keeps
// its engine shares and flushes to a normal Done. The Drained channel closes
// once the last live session retires. Idempotent; there is no undrain — a
// draining daemon's next state is exit.
func (s *Scheduler) Drain() {
	s.mu.Lock()
	first := !s.draining && !s.closed
	s.draining = true
	empty := len(s.sessions) == 0
	s.mu.Unlock()
	if first {
		s.emit(eventDrain, "", 0, "drain started: admission stopped, in-flight sessions flushing")
	}
	if empty {
		s.drainedOnce.Do(func() { close(s.drained) })
	}
}

// Draining reports whether Drain has been called.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drained returns a channel closed once the scheduler is draining (or
// closed) and no live session remains — the barrier a rolling restart waits
// on before exiting the process.
func (s *Scheduler) Drained() <-chan struct{} { return s.drained }

// DrainStatus is the drain-progress document served by POST/GET /drain.
type DrainStatus struct {
	Draining bool `json:"draining"`
	// Live is how many admitted sessions are still flushing.
	Live int `json:"live_sessions"`
	// Drained means drain mode is on and the last session has retired: the
	// process can exit without failing any client.
	Drained bool `json:"drained"`
	// Rejected counts Opens refused with ErrDraining since drain began.
	Rejected uint64 `json:"rejected,omitempty"`
}

// DrainStatus snapshots drain progress.
func (s *Scheduler) DrainStatus() DrainStatus {
	s.mu.Lock()
	draining := s.draining
	live := len(s.sessions)
	s.mu.Unlock()
	return DrainStatus{
		Draining: draining,
		Live:     live,
		Drained:  draining && live == 0,
		Rejected: s.drainRejects.Load(),
	}
}

// Sessions snapshots every live session, sorted by id — the /sessions
// payload.
func (s *Scheduler) Sessions() []SessionInfo {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SessionInfo, 0, len(s.sessions))
	for _, ss := range s.sessions {
		st := ss.Stats()
		info := SessionInfo{
			ID: ss.id, Tenant: ss.tenant, Accel: ss.acc.Name(),
			Weight: ss.weight, Quota: ss.quota, Pass: ss.pass,
			Blocks: st.Blocks, WordsIn: st.WordsIn, WordsOut: st.WordsOut,
			Quanta: st.Quanta, Switches: st.Switches, DroppedWords: st.DroppedWords,
			Retries: st.Retries, Recovered: st.Recovered,
			InQueued: ss.in.Len(), OutQueued: ss.out.Len(), InClosed: ss.in.Closed(),
			Admitted: ss.admitted,
			AgeMs:    float64(now.Sub(ss.admitted)) / float64(time.Millisecond),
		}
		lat := ss.lat.totals().Since(StageTotals{})
		info.Latency = &lat
		if err := ss.Err(); err != nil {
			info.Err = err.Error()
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Close stops the scheduler: workers are joined, every live session is
// retired with ErrClosed (queued input discarded, output queues closed, Done
// channels closed), and the scheduler's metric sources are removed.
// Idempotent.
func (s *Scheduler) Close() {
	s.once.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		close(s.stop)
		s.wg.Wait()
		s.mu.Lock()
		live := make([]*Session, 0, len(s.sessions))
		for _, ss := range s.sessions {
			live = append(live, ss)
		}
		s.mu.Unlock()
		for _, ss := range live {
			ss.fail(ErrClosed)
			s.retire(ss)
		}
		// A closed scheduler is trivially drained: never leave a rolling
		// restart hanging on the Drained barrier after a hard Close.
		s.drainedOnce.Do(func() { close(s.drained) })
		if reg := s.cfg.Registry; reg != nil {
			reg.Unregister("sched")
			s.mu.Lock()
			for name := range s.tenants {
				reg.Unregister("tenant/" + name)
			}
			s.mu.Unlock()
		}
	})
}

// readyLocked reports whether the session has schedulable work: a complete
// input block with output room, or lifecycle work (kill, end-of-stream
// drain/retire). Caller holds s.mu.
func (ss *Session) readyLocked() bool {
	if ss.serving || ss.retired {
		return false
	}
	if ss.killed.Load() {
		return true
	}
	if ss.in.Closed() {
		return true // drain remaining blocks, drop the partial tail, retire
	}
	if ss.in.Len() < ss.inW {
		return false
	}
	// Backpressure: dispatch only with room for at least one output block,
	// so a slow consumer parks its own session rather than an engine worker.
	return ss.outW == 0 || ss.out.Cap()-ss.out.Len() >= ss.outW
}

// pick dispatches the runnable session with the least virtual time (stride
// scheduling). A session rejoining after idling is floored to the current
// virtual time: fairness shares the future, it does not repay the past.
// When more than one session is runnable, pick re-rings the pool's bell:
// rings that land while no worker is blocked on it merge into one token and
// wake one worker, so each dispatch passes the wakeup on until the runnable
// sessions or the parked workers run out.
func (s *Scheduler) pick() *Session {
	s.mu.Lock()
	var best *Session
	ready := 0
	for _, ss := range s.sessions {
		if !ss.readyLocked() {
			continue
		}
		ready++
		if best == nil || ss.pass < best.pass || (ss.pass == best.pass && ss.id < best.id) {
			best = ss
		}
	}
	if best == nil {
		s.mu.Unlock()
		return nil
	}
	best.serving = true
	if best.pass > s.vtime {
		s.vtime = best.pass
	} else {
		best.pass = s.vtime
	}
	s.decisions.Add(1)
	s.mu.Unlock()
	if ready > 1 {
		s.bell.Ring()
	}
	return best
}

// finishServe returns a dispatched session to the runnable pool, charging its
// virtual time for the blocks served; a session that reached its quota is
// retired here.
func (s *Scheduler) finishServe(ss *Session, blocks int) {
	s.mu.Lock()
	ss.serving = false
	if blocks > 0 {
		ss.pass += float64(blocks) / float64(ss.weight)
		ss.quanta.Add(1)
	}
	quotaDone := ss.quota > 0 && ss.blocks.Load() >= ss.quota
	s.mu.Unlock()
	if quotaDone {
		ss.fail(ErrQuotaExceeded)
		s.retire(ss)
	}
}

// retire removes a session from service: it leaves the table, its output
// queue closes (ending the consumer's stream) and its Done channel closes. Safe to call with the session marked serving (the
// caller is the worker holding it) or from Close with workers joined.
func (s *Scheduler) retire(ss *Session) {
	s.mu.Lock()
	if ss.retired {
		s.mu.Unlock()
		return
	}
	ss.retired = true
	ss.serving = false
	delete(s.sessions, ss.id)
	s.retirals.Add(1)
	lastOut := s.draining && len(s.sessions) == 0
	if s.schedTrk != nil {
		s.schedTrk.Instant("retire:" + ss.tenant)
	}
	s.mu.Unlock()
	if lastOut {
		// Drain barrier: this was the last in-flight session of a draining
		// scheduler — the rolling restart may proceed.
		s.drainedOnce.Do(func() { close(s.drained) })
	}
	// Close rings outBell, so a parked pump observes the end of stream. Then
	// the bells come off: a caller-supplied queue outlives its session.
	ss.in.OnPush(nil)
	ss.in.OnPop(nil)
	ss.out.OnPop(nil)
	ss.out.Close()
	ss.out.OnPush(nil)
	close(ss.done)
}

// worker is one engine of the pool: pick the fairest runnable session,
// serve one quantum, repeat; a pick that differs from the last session
// served counts as a swap. With no runnable session the
// worker parks on the pool's bell (park) with no timer: only a queue
// publication, a kill, an admission or Close wakes it.
func (s *Scheduler) worker(i int) {
	defer s.wg.Done()
	var trk *cohort.TraceTrack
	if s.workerTrks != nil {
		trk = s.workerTrks[i]
	}
	var lastID uint64
	// Stage-attribution sampling countdown: one quantum in every
	// LatencySample served by this worker is stamped at its stage boundaries.
	// The stride is per worker, so a multi-engine pool samples at the same
	// aggregate rate per unit of work as a single engine.
	latCnt := 0
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		ss := s.pick()
		s.workerOps[i].Add(1)
		if ss == nil {
			if ss = s.park(); ss == nil {
				continue // woken or stopping: look again from the top
			}
		}
		// tPick stamps the dispatch instant of a sampled quantum. Zero means
		// unsampled.
		var tPick time.Time
		if n := s.cfg.LatencySample; n > 0 {
			if latCnt++; latCnt >= n {
				latCnt = 0
				tPick = time.Now()
			}
		}
		if ss.id != lastID {
			ss.switches.Add(1)
			s.swaps.Add(1)
			lastID = ss.id
		}
		s.serveQuantum(trk, ss, tPick)
	}
}

// park is the idle path of a worker that found nothing runnable: the bell
// protocol — Arm, one last pick, wait, Disarm. It returns the session the
// last pick dispatched, or nil once woken or stopped.
func (s *Scheduler) park() *Session {
	s.bell.Arm()
	defer s.bell.Disarm()
	if ss := s.pick(); ss != nil {
		return ss
	}
	select {
	case <-s.stop:
	case <-s.bell.C():
	}
	return nil
}

// WatchWorkers registers every engine worker with the stall watchdog: worker
// i reports its scheduling-loop pass counter as progress and "any session is
// runnable" as pending work, so a worker wedged inside an accelerator's
// Process while work waits shows up in /healthz and fires the stall
// callback, exactly like a wedged native Engine.
func (s *Scheduler) WatchWorkers(dog *cohort.Watchdog) {
	for i := 0; i < s.cfg.Engines; i++ {
		ops := &s.workerOps[i]
		dog.WatchProbe(fmt.Sprintf("sched/w%d", i), func() cohort.Probe {
			return cohort.Probe{Progress: ops.Load(), Pending: s.hasReady()}
		})
	}
}

// hasReady reports whether the pool has work in flight: a schedulable
// session, or one already dispatched to a worker (a wedged worker holds its
// session in the serving state — that must still count as pending, or a
// single-tenant wedge would read as an idle, healthy pool).
func (s *Scheduler) hasReady() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ss := range s.sessions {
		if ss.serving || ss.readyLocked() {
			return true
		}
	}
	return false
}

// serveQuantum runs one scheduling decision for a dispatched session: drain
// up to Quantum complete blocks from its input queue (one read-index
// publication for the run), process them through the session's accelerator,
// publish the results, and handle lifecycle edges (kill, quota, end of
// stream, accelerator failure).
//
// A non-zero tPick marks the quantum as latency-sampled: the dispatch
// instant closes the queue stage (against the ingress stamp the socket
// reader left), the staging copy closes the sched stage, the block loop the
// compute stage, and the publication leaves an egress stamp for the socket
// pump to close the wire stage against. Unsampled quanta only clear the
// ingress stamp — one atomic store, nothing timed, nothing allocated.
func (s *Scheduler) serveQuantum(trk *cohort.TraceTrack, ss *Session, tPick time.Time) {
	if ss.killed.Load() {
		ss.fail(ErrKilled)
		ss.ten.kills.Add(1)
		// Emit before retiring: Done is the final signal, events included.
		s.emit(eventSessionKill, ss.tenant, ss.id, "killed before dispatch")
		s.retire(ss)
		return
	}
	inW := ss.inW
	// The staging buffer holds one quantum of blocks; Register allocates it
	// and every decision reuses it.
	quantum := s.cfg.Quantum
	a, b := ss.in.ReadSegments()
	avail := len(a) + len(b)
	blocks := avail / inW
	if blocks > quantum {
		blocks = quantum
	}
	if ss.quota > 0 {
		if rem := ss.quota - ss.blocks.Load(); uint64(blocks) > rem {
			blocks = int(rem)
		}
	}
	if ss.outW > 0 {
		if room := (ss.out.Cap() - ss.out.Len()) / ss.outW; blocks > room {
			blocks = room
		}
	}
	if blocks == 0 {
		if ss.in.Closed() && avail < inW {
			if avail > 0 {
				// The stream ended mid-block: drop the partial tail.
				ss.in.CommitRead(avail)
				ss.dropped.Add(uint64(avail))
			}
			if ss.in.Drained() {
				s.retire(ss)
				return
			}
		}
		s.finishServe(ss, 0)
		return
	}

	var t0 uint64
	if trk != nil {
		t0 = trk.Begin()
	}
	n := blocks * inW
	c := copy(ss.buf[:n], a)
	copy(ss.buf[c:n], b)
	ss.in.CommitRead(n)
	ss.wordsIn.Add(uint64(n))
	ss.ten.wordsIn.Add(uint64(n))

	sampled := !tPick.IsZero()
	var tCompute0 time.Time
	if ing := ss.takeIngress(); sampled {
		if ing != 0 {
			ss.observeStage(StageQueue, time.Duration(tPick.UnixNano()-int64(ing)))
		}
		tCompute0 = time.Now()
		ss.observeStage(StageSched, tCompute0.Sub(tPick))
	}

	// Results go straight into the output ring's free segments and publish
	// with ONE queue publication per quantum (the backpressure clamp above
	// already reserved room for every block, and only the consumer can change
	// the free region — by growing it). Whole-quanta handoffs are what let
	// the socket pump coalesce a quantum of blocks into a single Data frame
	// and writev — per-block publication would feed it one block-sized frame
	// at a time.
	wa, wb := ss.out.WriteSegments()
	staged := 0 // words written into wa/wb, not yet published
	wordsOut, completed := 0, 0
	var qerr error
	for blk := 0; blk < blocks; blk++ {
		res, err := s.processBlock(ss, ss.buf[blk*inW:(blk+1)*inW])
		if err != nil {
			// Blocks completed before the failure still publish below: the
			// consumer already has a claim on them.
			qerr = err
			break
		}
		if staged+len(res) > len(wa)+len(wb) {
			// Only an accelerator that returns more than its declared
			// OutWords outruns the reservation: publish what is staged and
			// push the stray block the slow way.
			ss.publish(staged)
			staged = 0
			if !s.pushOut(ss, res) {
				qerr = ErrKilled
				break
			}
			wa, wb = ss.out.WriteSegments()
		} else {
			if staged < len(wa) {
				n := copy(wa[staged:], res)
				copy(wb, res[n:])
			} else {
				copy(wb[staged-len(wa):], res)
			}
			staged += len(res)
		}
		wordsOut += len(res)
		completed++
	}
	var tPub time.Time
	if sampled && qerr == nil {
		tPub = time.Now()
		ss.observeStage(StageCompute, tPub.Sub(tCompute0))
	}
	ss.publish(staged)
	ss.wordsOut.Add(uint64(wordsOut))
	ss.ten.wordsOut.Add(uint64(wordsOut))
	ss.blocks.Add(uint64(completed))
	ss.ten.blocks.Add(uint64(completed))
	if qerr != nil {
		s.failQuantum(ss, completed, qerr)
		return
	}
	if sampled && wordsOut > 0 {
		// Leave the egress stamp for the socket pump: it closes the wire
		// stage when this quantum's coalesced frame reaches the kernel.
		ss.markEgress(tPub)
	}
	if trk != nil {
		trk.End(ss.serveSpan, t0)
	}
	s.finishServe(ss, completed)
}

// publish makes n words written into the output ring's segments visible to
// the consumer with one index store, which rings its doorbell.
func (ss *Session) publish(n int) {
	if n > 0 {
		ss.out.CommitWrite(n)
	}
}

// failQuantum resolves a quantum that ended early after completed blocks:
// ErrClosed (scheduler stopping mid-retry) releases the session without a
// verdict — Close retires everything with ErrClosed; a kill or accelerator
// fault retires the session here with the matching accounting. The event is
// emitted before the retirement so that a watcher woken by Done finds it.
func (s *Scheduler) failQuantum(ss *Session, completed int, err error) {
	if errors.Is(err, ErrClosed) {
		s.finishServe(ss, completed)
		return
	}
	if errors.Is(err, ErrKilled) {
		ss.fail(ErrKilled)
		ss.ten.kills.Add(1)
		s.emit(eventSessionKill, ss.tenant, ss.id,
			fmt.Sprintf("killed mid-quantum after %d blocks", completed))
		s.retire(ss)
		return
	}
	ss.fail(fmt.Errorf("sched: accelerator %s failed for tenant %s: %w", ss.acc.Name(), ss.tenant, err))
	ss.ten.terminal.Add(1)
	s.emit(eventTerminalFault, ss.tenant, ss.id,
		fmt.Sprintf("accelerator %s: %v (after %d blocks)", ss.acc.Name(), err, completed))
	s.retire(ss)
}

// processBlock runs one block through the session's accelerator, retrying
// transient faults (cohort.IsTransient) up to Config.Retries times with a
// doubling backoff. The retry pause runs on the serving worker: a flaky
// tenant burns its own service time, not its neighbors'. Returns ErrKilled
// if the session is killed mid-retry, ErrClosed if the scheduler stops, or
// the accelerator's error once the budget is exhausted (or immediately for
// an unmarked, terminal error).
func (s *Scheduler) processBlock(ss *Session, in []cohort.Word) ([]cohort.Word, error) {
	res, err := ss.acc.Process(in)
	if err == nil {
		return res, nil
	}
	pause := s.cfg.RetryBackoff
	for attempt := 0; attempt < s.cfg.Retries && cohort.IsTransient(err); attempt++ {
		ss.retries.Add(1)
		ss.ten.retries.Add(1)
		if pause > 0 {
			t := time.NewTimer(pause)
			select {
			case <-s.stop:
				t.Stop()
				return nil, ErrClosed
			case <-t.C:
			}
			if pause < 64*s.cfg.RetryBackoff {
				pause *= 2
			}
		}
		if ss.killed.Load() {
			return nil, ErrKilled
		}
		if res, err = ss.acc.Process(in); err == nil {
			ss.recovered.Add(1)
			ss.ten.recovered.Add(1)
			return res, nil
		}
	}
	return nil, err
}

// pushOut publishes one block's results into the session output queue. The
// backpressure clamp in serveQuantum reserves room for every block of
// declared size, so this runs only for an accelerator that returns more
// words than its declared OutWords (TestQuantumPublishesIntoRing's
// over-declared case). It spins, with yields, rather than parking: Out's pop
// bell is the pool's shared bell, and a ring wakes one waiter: a worker
// parked there would swallow the wakeup an idle worker needs for another
// session's input. It still gives up if the session is killed or the
// scheduler stops.
func (s *Scheduler) pushOut(ss *Session, ws []cohort.Word) bool {
	for len(ws) > 0 {
		n := ss.out.TryPushSlice(ws)
		ws = ws[n:]
		if len(ws) > 0 && n == 0 {
			if ss.killed.Load() {
				return false
			}
			select {
			case <-s.stop:
				return false
			default:
				runtime.Gosched()
			}
		}
	}
	return true
}
