package cohort

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cohort/internal/trace"
)

// Word is the endpoint interface width: accelerators consume and produce
// 64-bit words, with any wider blocks assembled by ratchet logic (§4.3).
type Word = uint64

// Accelerator is a streaming compute element with a fixed block ratio: it
// consumes InWords words and produces OutWords words per block. Configure
// receives the CSR struct supplied at registration (an AES key, an encoder
// geometry, ...). Implementations must be safe to call from the single
// engine goroutine that owns them. The slice passed to Process is reused
// between calls and must not be retained. The slice Process returns belongs
// to the accelerator and stays valid only until its next Process call — every
// built-in reuses one result buffer, so a steady-state engine never allocates
// — and callers (the engine, the scheduler, FaultAccel's in-place corruption)
// copy it out or finish with it before calling again.
type Accelerator interface {
	Name() string
	InWords() int
	OutWords() int
	Configure(csr []byte) error
	Process(in []Word) ([]Word, error)
}

// DefaultBatch is the engine's default draining batch, in blocks: how many
// accelerator blocks an engine pulls from its input queue per wakeup
// (§4.1's batched index updates, applied on the consume side).
const DefaultBatch = 8

// Engine is a running software Cohort engine: a goroutine bridging an input
// queue to an accelerator to an output queue, exactly as the paper's
// hardware engine replaces a software thread (§3.3). Create with Register.
type Engine struct {
	acc   Accelerator
	in    *Fifo[Word]
	out   *Fifo[Word]
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once
	batch int

	// bell is the engine's doorbell: in's push bell and out's pop bell, so a
	// word arriving, a close, or room freed downstream wakes the parked
	// engine (§4.2's invalidation of the monitored index line).
	bell *Bell

	// Recovery policy (WithRetry / WithProcessTimeout). retries is the
	// per-block transient-fault retry budget; retryMin the first retry pause
	// (doubling, capped at 64×); procTimeout bounds one Process call.
	retries     int
	retryMin    time.Duration
	procTimeout time.Duration

	// trk and flight are non-nil only when the engine was registered
	// WithFlightRecorder; every trace call site checks trk so a disabled
	// engine never reads the clock or formats anything, and a terminal error
	// triggers flight's auto-dump.
	trk    *trace.Track
	flight *FlightRecorder

	elemsIn   atomic.Uint64
	elemsOut  atomic.Uint64
	blocks    atomic.Uint64
	wakeups   atomic.Uint64
	parks     atomic.Uint64
	errs      atomic.Uint64
	dropped   atomic.Uint64
	retried   atomic.Uint64
	recovered atomic.Uint64
	errp      atomic.Pointer[error]

	// histo is the drain→publish latency distribution, log2-bucketed in
	// nanoseconds and sampled every histoSampleEvery-th wakeup so the clock
	// reads stay off the common path.
	histo LatencyRecorder
}

// histoSampleEvery must be a power of two; one in this many wakeups pays the
// two time.Now() calls that feed the latency histogram. 128 keeps the clock
// reads under ~1% of a batch=1 wakeup while still collecting thousands of
// samples per second on a busy engine.
const histoSampleEvery = 128

// histoBuckets spans 1 ns to ~2 s in log2 buckets.
const histoBuckets = 32

// RegisterOption tunes a Register call.
type RegisterOption func(*registerCfg)

type registerCfg struct {
	csr         []byte
	batch       int
	retries     int
	retryMin    time.Duration
	procTimeout time.Duration
	flight      *FlightRecorder
	track       string
}

// WithCSR supplies the accelerator's configuration struct at registration
// time (§4.3), e.g. the AES key.
func WithCSR(csr []byte) RegisterOption {
	return func(c *registerCfg) { c.csr = append([]byte(nil), csr...) }
}

// WithBatch sets how many accelerator blocks the engine drains from its
// input queue per wakeup (default DefaultBatch). Larger batches amortize
// queue synchronization over more words — the software knob matching the
// batched index updates swept in Fig. 8/9. The engine still processes
// whatever complete blocks are available; it never waits for a full batch,
// so latency at low occupancy is unchanged.
func WithBatch(blocks int) RegisterOption {
	return func(c *registerCfg) { c.batch = blocks }
}

// WithFlightRecorder attaches the engine to an always-on, fixed-memory
// flight recorder: the engine emits an idle span per park, a drain span per
// wakeup, a compute span per block and a publish span per output publication
// onto the named track (default: the accelerator's name), and the ring is
// auto-dumped (FlightRecorder.AutoDump) if the engine stops with a terminal
// accelerator error. Without this option tracing is a guaranteed no-op — no
// clock reads, no formatting, no allocation.
func WithFlightRecorder(f *FlightRecorder, track string) RegisterOption {
	return func(c *registerCfg) {
		if f != nil {
			c.flight, c.track = f, track
		}
	}
}

// WithRetry makes transient accelerator faults — errors marked with
// Transient (or carrying a `Transient() bool` method in their chain) —
// non-terminal: the engine re-runs the failing block up to n times, pausing
// backoff, 2·backoff, ... (capped at 64·backoff) between attempts. A block
// still failing after n retries, or failing with an unmarked error, stops
// the engine exactly as before (Err). The default (n = 0) keeps every
// Process error terminal.
func WithRetry(n int, backoff time.Duration) RegisterOption {
	return func(c *registerCfg) { c.retries, c.retryMin = n, backoff }
}

// WithProcessTimeout bounds a single accelerator Process call: a call that
// has not returned after d stops the engine with ErrProcessTimeout instead
// of wedging its goroutine forever — the queues, the session and the
// watchdog all stay live for containment. The timeout is terminal, never
// retried: Go cannot cancel the in-flight call, so the abandoned call may
// still be running (its result is discarded when it finishes) and the
// accelerator's state is unknown. Costs one goroutine spawn per Process
// call; the zero default keeps the direct-call fast path.
func WithProcessTimeout(d time.Duration) RegisterOption {
	return func(c *registerCfg) { c.procTimeout = d }
}

// Register connects an accelerator between two queues and starts its engine
// — the cohort_register syscall of Table 1. The caller keeps using plain
// Push/Pop (or the bulk PushSlice/PopSlice) on the queues; chains are built
// by registering another engine whose input is this engine's output queue.
//
// The engine takes in's push bell and out's pop bell (Fifo.OnPush, OnPop)
// and parks on them whenever it has nothing to do; it fails if either side
// already has a bell. Both come off when the engine exits.
func Register(acc Accelerator, in, out *Fifo[Word], opts ...RegisterOption) (*Engine, error) {
	if acc.InWords() < 1 || acc.OutWords() < 0 {
		return nil, fmt.Errorf("cohort: accelerator %s has invalid block ratio %d:%d",
			acc.Name(), acc.InWords(), acc.OutWords())
	}
	if in == nil || out == nil {
		return nil, fmt.Errorf("cohort: register %s: nil queue", acc.Name())
	}
	cfg := registerCfg{batch: DefaultBatch}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.batch < 1 {
		return nil, fmt.Errorf("cohort: register %s: batch must be >= 1, got %d", acc.Name(), cfg.batch)
	}
	if cfg.retries < 0 {
		return nil, fmt.Errorf("cohort: register %s: negative retry budget %d", acc.Name(), cfg.retries)
	}
	if cfg.csr != nil {
		if err := acc.Configure(cfg.csr); err != nil {
			return nil, fmt.Errorf("cohort: configure %s: %w", acc.Name(), err)
		}
	}
	bell := NewBell()
	if !in.pushBell.CompareAndSwap(nil, bell) {
		return nil, fmt.Errorf("cohort: register %s: input queue already has a push bell", acc.Name())
	}
	if !out.popBell.CompareAndSwap(nil, bell) {
		in.OnPush(nil)
		return nil, fmt.Errorf("cohort: register %s: output queue already has a pop bell", acc.Name())
	}
	e := &Engine{
		acc: acc, in: in, out: out,
		stop: make(chan struct{}), done: make(chan struct{}),
		batch: cfg.batch, bell: bell,
		retries: cfg.retries, retryMin: cfg.retryMin, procTimeout: cfg.procTimeout,
	}
	if cfg.flight != nil {
		track := cfg.track
		if track == "" {
			track = acc.Name()
		}
		// One Sprintf-free track lookup, at registration.
		e.flight, e.trk = cfg.flight, cfg.flight.rec.Track(track)
	}
	go e.run()
	return e, nil
}

// run is the engine loop: drain a block batch from the input queue (the
// consumer endpoint + ratchet) with one read-index publication, process the
// whole blocks, and publish their results with one write-index publication
// (the producer endpoint). Up to batch × InWords words move per wakeup, so
// the atomic release-stores on both queues — and the cross-core invalidations
// they cause — are amortized over the whole run: §4.1's batched index
// updates, on the consume and the produce side alike. With no complete block
// to take, the engine parks on its bell until the producer publishes.
func (e *Engine) run() {
	defer func() {
		// Every exit hands the bells back, so the queues can be registered
		// again once Done is closed.
		e.in.pushBell.CompareAndSwap(e.bell, nil)
		e.out.popBell.CompareAndSwap(e.bell, nil)
		close(e.done)
	}()
	inW := e.acc.InWords()
	buf := make([]Word, e.batch*inW)
	fill := 0
	// One wakeup in histoSampleEvery times its drain for the latency
	// histogram; the others read no clock.
	countdown := histoSampleEvery
	var now uint64 // traced engines only: the wakeup's start, on the recorder clock
	for {
		if e.trk != nil {
			now = e.flight.rec.Now()
		}
		n := e.in.TryPopInto(buf[fill:])
		fill += n
		if fill < inW {
			// Not even one complete block yet: park (or bail out).
			if n > 0 {
				continue
			}
			if e.in.Drained() {
				e.finishEOS(fill)
				return
			}
			if !e.park(e.inputReady) {
				return
			}
			continue
		}
		if e.trk != nil {
			e.trk.Span("drain", now)
		}
		e.wakeups.Add(1)
		n = fill / inW * inW
		ok := false
		if countdown--; countdown == 0 {
			countdown = histoSampleEvery
			start := time.Now()
			ok = e.drain(buf[:n], inW)
			e.histo.Observe(uint64(time.Since(start)))
		} else {
			ok = e.drain(buf[:n], inW)
		}
		if !ok {
			return
		}
		copy(buf, buf[n:fill])
		fill -= n
	}
}

// inputReady is the last look before parking on an empty input: a word or
// the end of stream has arrived.
func (e *Engine) inputReady() bool { return e.in.Len() > 0 || e.in.Closed() }

// outputReady is the last look before parking on a full output.
func (e *Engine) outputReady() bool { return e.out.Len() < e.out.Cap() }

// park waits on the engine's bell with the Bell protocol: arm, take a last
// look with ready, and block until a publication rings or stop closes. A
// park does no polling and reads no timer; the caller re-checks its queue
// after every return. It returns false when stop closed.
func (e *Engine) park(ready func() bool) bool {
	e.bell.Arm()
	defer e.bell.Disarm()
	if ready() {
		return true
	}
	e.parks.Add(1)
	var t0 uint64
	if e.trk != nil {
		t0 = e.flight.rec.Now()
	}
	select {
	case <-e.stop:
		return false
	case <-e.bell.C():
	}
	if e.trk != nil {
		e.trk.Span("idle", t0)
	}
	return true
}

// drain runs one batch of whole blocks through the accelerator, copying each
// result straight into the output ring's free segments and publishing once:
// when the batch ends, early when the acquired segments fill up (the consumer
// must see them to free room), or at the block where the engine stops. With
// the output full it parks until the consumer frees room. WordsIn moves up
// front, as the words are handed to processing (the Watchdog reads WordsIn >
// Blocks·InWords as work in flight); WordsOut and Blocks move with each
// publication, before it, by what it makes visible, so a consumer that has
// popped a word finds it counted. It returns false when the engine must
// stop: a terminal fault (recorded by processBlock) or an Unregister.
func (e *Engine) drain(in []Word, inW int) bool {
	e.elemsIn.Add(uint64(len(in)))
	var seg, next []Word // what is left of the acquired write segments
	staged := 0          // words written into them, not yet published
	blocks, counted := 0, 0
	ok := true
loop:
	for ; len(in) > 0; in = in[inW:] {
		var t0 uint64
		if e.trk != nil {
			t0 = e.flight.rec.Now()
		}
		var res []Word
		if res, ok = e.processBlock(in[:inW]); !ok {
			break
		}
		if e.trk != nil {
			e.trk.Span("compute", t0)
		}
		blocks++
		for len(res) > 0 {
			if len(seg) == 0 {
				seg, next = next, nil
			}
			if len(seg) == 0 {
				// The acquired room is used up: publish it so the consumer can
				// free more, then take whatever is free now — or wait for some.
				// The block being copied is counted by the publication that
				// ends it.
				e.publish(staged, blocks-1-counted)
				staged, counted = 0, blocks-1
				if seg, next = e.out.WriteSegments(); len(seg) == 0 {
					if ok = e.park(e.outputReady); !ok {
						break loop
					}
				}
				continue
			}
			n := copy(seg, res)
			seg, res = seg[n:], res[n:]
			staged += n
		}
	}
	e.publish(staged, blocks-counted)
	return ok
}

// publish counts n words and the blocks they complete, then makes the words
// written into the output ring's segments visible to the consumer with a
// single write-index store.
func (e *Engine) publish(n, blocks int) {
	if blocks > 0 {
		e.blocks.Add(uint64(blocks))
	}
	if n == 0 {
		return
	}
	e.elemsOut.Add(uint64(n))
	var t0 uint64
	if e.trk != nil {
		t0 = e.flight.rec.Now()
	}
	e.out.CommitWrite(n)
	if e.trk != nil {
		e.trk.Span("publish", t0)
	}
	// A consumer woken by this publication lands in this goroutine's runnext
	// slot, and a compute-bound engine would keep the P until the scheduler
	// preempts it (~10 ms), while the consumer's queue piles up. Yield once so
	// the woken side runs now.
	if b := e.out.pushBell.Load(); b != nil && b.armed.Load() != 0 {
		runtime.Gosched()
	}
}

// processBlock runs one block through the accelerator under the configured
// recovery policy: transient failures are retried up to the WithRetry budget
// with doubling pauses; a terminal failure (unmarked error, exhausted budget,
// or ErrProcessTimeout) records the error via fail. Returns ok=false when the
// engine must stop — after fail, or because stop closed during a retry pause
// (no error recorded: that is an ordinary Unregister).
func (e *Engine) processBlock(in []Word) ([]Word, bool) {
	res, err := e.callProcess(in)
	if err == nil {
		return res, true
	}
	pause := e.retryMin
	for attempt := 0; attempt < e.retries && IsTransient(err); attempt++ {
		e.retried.Add(1)
		if e.trk != nil {
			e.trk.Instant("retry")
		}
		if pause > 0 {
			t := time.NewTimer(pause)
			select {
			case <-e.stop:
				t.Stop()
				return nil, false
			case <-t.C:
			}
			if pause < 64*e.retryMin {
				pause *= 2
			}
		}
		if res, err = e.callProcess(in); err == nil {
			e.recovered.Add(1)
			return res, true
		}
	}
	e.fail(err)
	return nil, false
}

// callProcess invokes Process, bounded by WithProcessTimeout when one is
// configured. The timed path runs the call in a fresh goroutine whose result
// lands in a buffered channel, so an abandoned (timed-out) call finishes and
// is collected without anyone waiting on it. An abandoned call may still
// write the accelerator's result buffer after the engine has moved on; that is
// safe only because a timeout is terminal — the engine never calls Process,
// or reads that buffer, again.
func (e *Engine) callProcess(in []Word) ([]Word, error) {
	if e.procTimeout <= 0 {
		return e.acc.Process(in)
	}
	type result struct {
		res []Word
		err error
	}
	ch := make(chan result, 1)
	go func() {
		res, err := e.acc.Process(in)
		ch <- result{res, err}
	}()
	t := time.NewTimer(e.procTimeout)
	defer t.Stop()
	select {
	case r := <-ch:
		return r.res, r.err
	case <-t.C:
		return nil, fmt.Errorf("%w: %s did not finish a block in %v", ErrProcessTimeout, e.acc.Name(), e.procTimeout)
	}
}

// fail records a terminal accelerator error. A terminally failing accelerator
// — an unmarked error, an exhausted retry budget, a process timeout — is
// terminal for the engine (the stream's block framing is gone) but must
// not take the process down: record it and stop, like a hardware engine
// raising an error IRQ and halting its FSM. Out-of-line so the wrapped
// error's allocation never lands in the run loops' frames. When a flight
// recorder is attached, stopping dumps the ring — the last moments before
// the fault, ending with this engine's "error" instant.
func (e *Engine) fail(err error) {
	e.errs.Add(1)
	werr := fmt.Errorf("cohort: accelerator %s failed mid-stream: %w", e.acc.Name(), err)
	e.errp.Store(&werr)
	if e.trk != nil {
		e.trk.Instant("error")
	}
	if e.flight != nil {
		e.flight.AutoDump(werr.Error())
	}
}

// finishEOS completes an end-of-stream shutdown: the producer closed the
// input queue and it is now empty. Words of a partially assembled block are
// dropped (the stream ended mid-block; counted in DroppedWords) and the end
// of stream is propagated to the output queue — the engine is its producer —
// so downstream consumers, chained engines included, observe it in turn.
func (e *Engine) finishEOS(fill int) {
	if fill > 0 {
		e.dropped.Add(uint64(fill))
	}
	e.out.Close()
	if e.trk != nil {
		e.trk.Instant("eos")
	}
}

// Unregister stops the engine (cohort_unregister). Like quiescing hardware,
// callers should drain in-flight work first: words inside a partially
// assembled block are dropped. Prefer closing the input queue (Fifo.Close)
// for a graceful finish — the engine then processes every complete block,
// closes its output queue, and exits on its own. Idempotent, safe for
// concurrent callers; returns once the engine goroutine has exited, which a
// parked engine does at once.
func (e *Engine) Unregister() {
	e.once.Do(func() { close(e.stop) })
	<-e.done
}

// Done returns a channel that is closed when the engine goroutine has exited
// — after an Unregister, a terminal accelerator error, or a drained
// end-of-stream input (Fifo.Close on the input queue). Waiting on it joins an
// engine that finishes by draining, without forcing an Unregister.
func (e *Engine) Done() <-chan struct{} { return e.done }

// Err returns the terminal error that stopped the engine, or nil while it is
// healthy. A non-nil error means the accelerator failed mid-stream and the
// engine has stopped (its goroutine exited); Unregister still works.
func (e *Engine) Err() error {
	if p := e.errp.Load(); p != nil {
		return *p
	}
	return nil
}

// EngineStats is a snapshot of an engine's performance counters (the
// software analogue of the hardware engine's counter CSRs). WordsIn/Wakeups
// is the achieved drain batch size — the direct observable for the §4.1
// batching win.
type EngineStats struct {
	WordsIn       uint64 // words consumed from the input queue
	WordsOut      uint64 // words produced into the output queue
	Blocks        uint64 // accelerator blocks processed
	Wakeups       uint64 // drain iterations that found at least one block
	BackoffSleeps uint64 // parks: times the idle engine blocked on its bell
	Errors        uint64 // terminal accelerator failures (see Err)
	Retries       uint64 // transient-fault Process re-attempts (WithRetry)
	Recovered     uint64 // blocks that succeeded after at least one retry
	DroppedWords  uint64 // partial-block words discarded at end of stream
	// DrainNs is the sampled drain→publish latency distribution: the wall
	// time from finding a block batch to its last output publication,
	// measured on one in histoSampleEvery wakeups.
	DrainNs LatencyHistogram
}

// String renders the snapshot on one line, with the drain latency
// distribution summarized as interpolated quantiles.
func (s EngineStats) String() string {
	return fmt.Sprintf(
		"words_in=%d words_out=%d blocks=%d wakeups=%d parks=%d errors=%d retries=%d recovered=%d drain_ns{p50=%.0f p95=%.0f p99=%.0f n=%d}",
		s.WordsIn, s.WordsOut, s.Blocks, s.Wakeups, s.BackoffSleeps, s.Errors, s.Retries, s.Recovered,
		s.DrainNs.Quantile(0.5), s.DrainNs.Quantile(0.95), s.DrainNs.Quantile(0.99), s.DrainNs.Samples())
}

// StatsDetail snapshots all engine counters.
func (e *Engine) StatsDetail() EngineStats {
	s := EngineStats{
		WordsIn:       e.elemsIn.Load(),
		WordsOut:      e.elemsOut.Load(),
		Blocks:        e.blocks.Load(),
		Wakeups:       e.wakeups.Load(),
		BackoffSleeps: e.parks.Load(),
		Errors:        e.errs.Load(),
		Retries:       e.retried.Load(),
		Recovered:     e.recovered.Load(),
		DroppedWords:  e.dropped.Load(),
	}
	s.DrainNs = e.histo.Snapshot()
	return s
}

// ResetStats zeroes every counter (the terminal error, if any, is kept).
func (e *Engine) ResetStats() {
	e.elemsIn.Store(0)
	e.elemsOut.Store(0)
	e.blocks.Store(0)
	e.wakeups.Store(0)
	e.parks.Store(0)
	e.errs.Store(0)
	e.dropped.Store(0)
	e.retried.Store(0)
	e.recovered.Store(0)
	e.histo.Reset()
}

// Chain registers a pipeline of accelerators connected by freshly allocated
// intermediate queues (each of capacity queueCap), returning the engines in
// order. The caller pushes into `in` and pops from `out` — the Figure 5
// pattern generalised to N stages. Every stage drains at block-batch
// granularity, so intermediate queues see one index publication per run
// rather than per word.
func Chain(in, out *Fifo[Word], queueCap int, accs ...Accelerator) ([]*Engine, error) {
	return ChainWith(in, out, queueCap, nil, accs...)
}

// ChainWith is Chain with engine options (e.g. WithBatch, WithRetry)
// applied to every stage. If a stage fails to register, the stages already
// running are unregistered, which hands back their queues' bells. Per-accelerator CSR config must still be done via
// Configure before chaining (a chain-wide WithCSR would misconfigure
// heterogeneous stages).
func ChainWith(in, out *Fifo[Word], queueCap int, opts []RegisterOption, accs ...Accelerator) ([]*Engine, error) {
	if len(accs) == 0 {
		return nil, fmt.Errorf("cohort: empty chain")
	}
	engines := make([]*Engine, 0, len(accs))
	cur := in
	for i, acc := range accs {
		next := out
		if i < len(accs)-1 {
			var err error
			next, err = NewFifo[Word](queueCap)
			if err != nil {
				return nil, err
			}
		}
		e, err := Register(acc, cur, next, opts...)
		if err != nil {
			for _, prev := range engines {
				prev.Unregister()
			}
			return nil, err
		}
		engines = append(engines, e)
		cur = next
	}
	return engines, nil
}
