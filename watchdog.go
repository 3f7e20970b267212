package cohort

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Watchdog is a background stall monitor for the native runtime: the
// software analogue of a hardware engine's liveness counter. It periodically
// samples every watched engine's progress counters; an engine that has input
// pending but moves no words and processes no blocks for a whole window is
// declared stalled — the `stalls` counter increments, the configured
// callback fires, and, when a FlightRecorder is wired, the recorder ring is
// dumped so the last moments before the wedge are inspectable in Perfetto.
// The window opens at the later of the last observed progress and the last
// scan that found no work pending: a component that parks while idle (a
// scheduler worker asleep on its doorbell) makes no progress during the
// lull, and must not read as stalled the moment work arrives.
//
// Stall detection is edge-triggered: one stall is counted per transition
// into the stalled state, and an engine that resumes making progress is
// healthy again (and can stall again later). An engine with no pending
// work — nothing queued in its input fifo and nothing drained-but-
// unprocessed in its batch buffer — is idle, not stalled: a service
// waiting for traffic stays healthy no matter how long the lull. An
// engine parked with a terminal
// accelerator error is reported through EngineHealth.Err rather than as a
// stall (its flight dump already fired when it parked).
//
// Components that are not Engines — scheduler workers, socket pumps — join
// the same detection through WatchProbe, supplying a monotone progress
// counter and a pending-work predicate of their own.
//
// All methods are safe for concurrent use.
type Watchdog struct {
	window    time.Duration
	every     time.Duration
	onStall   func(StallEvent)
	onRecover func(StallEvent)
	flight    *FlightRecorder

	stalls     atomic.Uint64
	recoveries atomic.Uint64

	mu      sync.Mutex
	watched map[string]*watchEntry

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// Probe is one generic liveness sample, returned by a WatchProbe callback.
// Progress is any monotone work counter (a component whose counter stops
// advancing while Pending is true for a whole window is declared stalled);
// Err marks the component parked on a terminal error.
type Probe struct {
	Progress  uint64
	Pending   bool
	Err       error
	Recovered uint64 // optional: blocks recovered after retries (flaky but alive)
}

// watchEntry is one watched component's progress bookkeeping. Engines and
// generic probes share the same entry: Watch wraps the engine's counters into
// a probe function.
type watchEntry struct {
	probe        func() Probe
	lastProgress uint64
	lastMove     time.Time
	// lastIdle is the last scan that found no work pending; the stall
	// window opens at the later of it and lastMove.
	lastIdle time.Time
	stalled  bool
}

// StallEvent describes one detected stall.
type StallEvent struct {
	Engine string        // the name given to Watch
	Idle   time.Duration // how long the engine made no progress despite pending input
}

// EngineHealth is one watched engine's liveness snapshot, served by
// /healthz when the watchdog is wired into an obsrv server.
type EngineHealth struct {
	Engine    string
	Err       error         // terminal accelerator error; the engine has parked
	Stalled   bool          // no progress for a window with work pending
	Idle      time.Duration // time since progress was last observed
	Recovered uint64        // blocks recovered via WithRetry — flaky but alive
}

// WatchdogOption tunes NewWatchdog.
type WatchdogOption func(*Watchdog)

// WithStallCallback invokes fn (on the watchdog goroutine) each time an
// engine transitions into the stalled state.
func WithStallCallback(fn func(StallEvent)) WatchdogOption {
	return func(w *Watchdog) { w.onStall = fn }
}

// WithRecoveryCallback invokes fn (on the watchdog goroutine) each time a
// stalled engine makes progress again — the other edge of the stall state
// machine, so an event plane records the full stall→recover interval rather
// than a one-sided alarm. The event's Idle is how long the stall lasted, from
// the last observed progress to the recovering scan.
func WithRecoveryCallback(fn func(StallEvent)) WatchdogOption {
	return func(w *Watchdog) { w.onRecover = fn }
}

// WithStallDump dumps the flight recorder's ring (FlightRecorder.AutoDump)
// each time a stall is detected.
func WithStallDump(f *FlightRecorder) WatchdogOption {
	return func(w *Watchdog) { w.flight = f }
}

// WithPollEvery sets the sampling period (default window/4, floor 1ms).
func WithPollEvery(d time.Duration) WatchdogOption {
	return func(w *Watchdog) { w.every = d }
}

// NewWatchdog starts a monitor that declares a watched engine stalled after
// `window` without progress while input is pending. Stop it with Stop.
func NewWatchdog(window time.Duration, opts ...WatchdogOption) *Watchdog {
	if window <= 0 {
		window = time.Second
	}
	w := &Watchdog{
		window:  window,
		watched: make(map[string]*watchEntry),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for _, o := range opts {
		o(w)
	}
	if w.every <= 0 {
		w.every = window / 4
	}
	if w.every < time.Millisecond {
		w.every = time.Millisecond
	}
	go w.run()
	return w
}

// Watch adds (or replaces) an engine under the given name. The engine starts
// in the healthy state with its progress clock at now. Pending work is words
// queued in the engine's input fifo or words already drained into its private
// batch buffer but not yet processed (WordsIn counts words handed to
// processing; Blocks counts blocks completed — an engine wedged inside
// Process holds the difference). The engine moves its counters once per
// drained batch, so progress is batch-granular: pick a stall window longer
// than WithBatch × the accelerator's block time.
func (w *Watchdog) Watch(name string, e *Engine) {
	inWords := uint64(e.acc.InWords())
	w.WatchProbe(name, func() Probe {
		s := e.StatsDetail()
		return Probe{
			// Monotone counters: any progress strictly increases the sum.
			Progress:  s.WordsIn + s.WordsOut + s.Blocks,
			Pending:   e.in.Len() > 0 || s.WordsIn > s.Blocks*inWords,
			Err:       e.Err(),
			Recovered: s.Recovered,
		}
	})
}

// WatchProbe adds (or replaces) a generic component under the given name —
// how non-Engine components (scheduler workers, pumps) join the same stall
// detection and /healthz reporting as engines. fn is called on the watchdog
// goroutine every sampling period and must be safe to call at any time.
func (w *Watchdog) WatchProbe(name string, fn func() Probe) {
	p := fn()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.watched[name] = &watchEntry{
		probe: fn, lastProgress: p.Progress, lastMove: time.Now(),
	}
}

// Unwatch removes an engine; unknown names are ignored.
func (w *Watchdog) Unwatch(name string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.watched, name)
}

// Stalls returns how many stall transitions have been detected.
func (w *Watchdog) Stalls() uint64 { return w.stalls.Load() }

// Recoveries returns how many stalled engines have resumed progress.
func (w *Watchdog) Recoveries() uint64 { return w.recoveries.Load() }

// Stop halts the monitor goroutine. Idempotent; returns once it has exited.
func (w *Watchdog) Stop() {
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
}

// Health snapshots every watched engine's liveness, sorted by name — the
// /healthz payload.
func (w *Watchdog) Health() []EngineHealth {
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]EngineHealth, 0, len(w.watched))
	for name, en := range w.watched {
		p := en.probe()
		out = append(out, EngineHealth{
			Engine:    name,
			Err:       p.Err,
			Stalled:   en.stalled,
			Idle:      now.Sub(en.lastMove),
			Recovered: p.Recovered,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Engine < out[j].Engine })
	return out
}

// run is the monitor loop.
func (w *Watchdog) run() {
	defer close(w.done)
	tick := time.NewTicker(w.every)
	defer tick.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-tick.C:
			w.scan(time.Now())
		}
	}
}

// scan samples every watched engine once. Stall and recovery events fire
// outside the watchdog lock so callbacks may call Health/Watch/Unwatch
// freely.
func (w *Watchdog) scan(now time.Time) {
	var fired, recovered []StallEvent
	w.mu.Lock()
	for name, en := range w.watched {
		p := en.probe()
		if p.Progress != en.lastProgress {
			if en.stalled {
				// Recovery edge: the component was declared stalled and has
				// now moved again.
				w.recoveries.Add(1)
				recovered = append(recovered, StallEvent{Engine: name, Idle: now.Sub(en.lastMove)})
			}
			en.lastProgress = p.Progress
			en.lastMove = now
			en.stalled = false
			continue
		}
		if p.Err != nil {
			continue // parked on a terminal error: reported via Health, not as a stall
		}
		if !p.Pending {
			en.lastIdle = now
			continue
		}
		since := en.lastMove
		if en.lastIdle.After(since) {
			since = en.lastIdle
		}
		if en.stalled || now.Sub(since) < w.window {
			continue
		}
		en.stalled = true
		w.stalls.Add(1)
		fired = append(fired, StallEvent{Engine: name, Idle: now.Sub(since)})
	}
	w.mu.Unlock()
	for _, ev := range fired {
		if w.flight != nil {
			w.flight.AutoDump("watchdog: engine " + ev.Engine + " stalled for " + ev.Idle.String())
		}
		if w.onStall != nil {
			w.onStall(ev)
		}
	}
	for _, ev := range recovered {
		if w.onRecover != nil {
			w.onRecover(ev)
		}
	}
}

// RegisterWatchdog exposes the watchdog's counters under the given source
// name: total stall transitions, engines watched, and how many are currently
// stalled or parked with a terminal error.
func RegisterWatchdog(r *Registry, name string, w *Watchdog) {
	r.Register(name, func() []Metric {
		var stalled, parked uint64
		hs := w.Health()
		for _, h := range hs {
			if h.Stalled {
				stalled++
			}
			if h.Err != nil {
				parked++
			}
		}
		return []Metric{
			{Name: "stalls", Value: w.Stalls()},
			{Name: "recoveries", Value: w.Recoveries()},
			{Name: "watched", Value: uint64(len(hs))},
			{Name: "stalled", Value: stalled},
			{Name: "parked", Value: parked},
		}
	})
}
