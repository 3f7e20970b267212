// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a cycle-granular clock and fires events in (time,
// schedule-order) sequence. Simulated hardware agents run either as
// processes or as plain callbacks executed in kernel context. Idle cycles cost
// nothing, which is what makes sweeping the full benchmark matrix cheap.
//
// # The baton
//
// A process is a goroutine that runs only while it holds control. Exactly
// one goroutine holds control at any moment — Run's caller, or one process —
// so model code runs single-threaded in effect and fully deterministic. The
// holder fires events itself instead of bouncing through Run's goroutine:
//
//   - Run fires events on its caller's goroutine until it pops an event that
//     starts or resumes a process, hands control to that process, and blocks
//     until the run ends.
//   - A process that parks (Wait, or a Signal or Queue wait) fires the next
//     events in place. A callback event runs right there. If the next process
//     event resumes the parking process itself, park simply returns: no
//     goroutine switch. If it resumes another process, the holder wakes that
//     process and blocks: one switch.
//   - A process whose function returns keeps firing events the same way
//     until control passes to another goroutine, then exits.
//   - When the run ends (no events left, the next one is past Run's limit, or
//     Stop was called) the holder hands control back to Run's caller.
//
// A panic in a process, or in a callback fired on a process goroutine,
// reaches Run's caller with its value. A callback's panic does not unwind the
// process whose goroutine fired it: that process stays parked, so Close can
// end it.
//
// # Continuations
//
// Signal.Notify and Queue.NotifyNotEmpty/NotifyNotFull queue a one-shot
// callback among a signal's waiters. Fire schedules it at exactly the (time,
// sequence) position a parked process would take, so a device written as a
// kernel-context state machine — re-check the queue, notify, return — fires
// the same events in the same order as the process it replaces, without a
// goroutine. Blocked counts parked processes only, never continuations.
//
// # Inline waits
//
// Wait skips the event queue when the resume event it would schedule is the
// very next event to fire: Stop has not been called, now+d is within Run's
// limit, and no pending event is due at or before now+d. The process then
// advances the clock and keeps running. It still takes a schedule sequence
// number, exactly as scheduling the event would, so event order and every
// simulated statistic are unchanged. Events already queued for the same time
// were scheduled earlier and fire first, so Wait(0) still yields to them.
//
// # Close
//
// Server-style processes (an engine waiting for a descriptor, a core
// program waiting on memory) are still parked when the event queue drains,
// and each one pins a goroutine and everything it references. Close ends
// them: a process parked on a Signal, a Queue or a timer is unwound with
// runtime.Goexit, so its deferred calls run; a process spawned but not yet
// started is dropped. Close also drops every pending event. Call it from
// Run's goroutine, after Run has returned and the results are harvested.
package sim

import (
	"fmt"
	"runtime"

	"cohort/internal/trace"
)

// Time is a simulation timestamp in cycles.
type Time = uint64

// event is one scheduled firing. Exactly one of p, fn and cb is set: the
// process to start or resume, At's callback, or AtCall's callback (called
// with arg).
type event struct {
	at  Time
	seq uint64
	p   *Proc
	fn  func()
	cb  func(uint32)
	arg uint32
}

// before orders events by (at, seq). Sequence numbers are unique, so the
// order is total and the heap's pop order is fully determined.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of events. Push and pop move events by
// value and never allocate once the slice has grown to the run's peak depth.
type eventHeap []event

func (h *eventHeap) push(e event) {
	s := append(*h, e)
	i := len(s) - 1
	for i > 0 {
		up := (i - 1) / 2
		if !e.before(&s[up]) {
			break
		}
		s[i] = s[up]
		i = up
	}
	s[i] = e
	*h = s
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = event{} // release the callback or process
	s = s[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && s[c+1].before(&s[c]) {
				c++
			}
			if !s[c].before(&last) {
				break
			}
			s[i] = s[c]
			i = c
		}
		s[i] = last
	}
	*h = s
	return top
}

// Kernel is a discrete-event simulator instance. The zero value is not
// usable; construct with New.
type Kernel struct {
	now      Time
	seq      uint64
	limit    Time // the running Run's limit, for Wait's inline check
	events   eventHeap
	ctl      chan struct{} // control returns to the goroutine in Run or Close
	stopped  bool
	live     []*Proc // processes spawned and not yet finished
	parked   int     // processes parked on a condition (not a timer)
	handoffs uint64  // parked processes resumed from another goroutine
	trap     any     // panic value captured on a process goroutine, rethrown in Run
	tr       *trace.Recorder
}

// New returns an empty kernel at time zero.
func New() *Kernel {
	return &Kernel{ctl: make(chan struct{}, 1)}
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// schedule queues e at absolute time t, or now if t is in the past.
func (k *Kernel) schedule(t Time, e event) {
	if t < k.now {
		t = k.now
	}
	k.seq++
	e.at, e.seq = t, k.seq
	k.events.push(e)
}

// At schedules fn to run in kernel context at absolute time t. Scheduling in
// the past is treated as "now".
func (k *Kernel) At(t Time, fn func()) { k.schedule(t, event{fn: fn}) }

// After schedules fn to run in kernel context d cycles from now.
func (k *Kernel) After(d Time, fn func()) { k.At(k.now+d, fn) }

// AtCall schedules cb(arg) to run in kernel context at absolute time t.
// Binding cb once and indexing per-component records with arg lets a
// component schedule without allocating a closure per event.
func (k *Kernel) AtCall(t Time, cb func(uint32), arg uint32) {
	k.schedule(t, event{cb: cb, arg: arg})
}

// Stop makes Run return after the event currently being processed. A process
// that calls Stop keeps running until it next parks.
func (k *Kernel) Stop() { k.stopped = true }

// Run fires events until the event queue is empty, Stop is called, or the
// clock would pass limit (limit 0 means no limit). It returns the time at
// which it stopped.
func (k *Kernel) Run(limit Time) Time {
	k.stopped = false
	k.limit = limit
	if p := k.serve(); p != nil {
		k.switchTo(p)
		<-k.ctl
		k.rethrow()
	}
	return k.now
}

// serve fires callback events on the goroutine holding control until a
// process event comes up or the run ends. It returns that event's process,
// or nil when the run has ended.
func (k *Kernel) serve() *Proc {
	for len(k.events) > 0 && !k.stopped {
		if k.limit != 0 && k.events[0].at > k.limit {
			// Leave the event for a later Run call and stop the clock at
			// the limit.
			k.now = k.limit
			return nil
		}
		e := k.events.pop()
		k.now = e.at
		switch {
		case e.p != nil:
			return e.p
		case e.fn != nil:
			e.fn()
		default:
			e.cb(e.arg)
		}
	}
	return nil
}

// serveTrapped is serve on a process goroutine. A panicking callback must not
// unwind the stack of the process that happens to hold control, so its value
// is trapped for Run's caller instead, and ok reports false.
func (k *Kernel) serveTrapped() (p *Proc, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			k.trap = r
		}
	}()
	return k.serve(), true
}

// yield passes control on from a process goroutine: self when it parks, nil
// when its function has returned. It reports true when the next process
// event resumes self, so control never left. Otherwise control has gone to
// another process or back to Run's caller, and the caller must block (or
// exit) without touching kernel state.
func (k *Kernel) yield(self *Proc) bool {
	p, ok := k.serveTrapped()
	switch {
	case !ok || p == nil:
		k.ctl <- struct{}{}
	case p == self:
		return true
	default:
		k.switchTo(p)
	}
	return false
}

// switchTo passes control to p, starting its goroutine on its first event.
func (k *Kernel) switchTo(p *Proc) {
	if !p.started {
		p.started = true
		go p.main()
		return
	}
	k.handoffs++
	p.wake <- struct{}{}
}

// Blocked returns the number of processes parked on a condition (a Signal or
// Queue) rather than on the clock; continuations queued with Notify do not
// count. After Run drains the event queue, a nonzero Blocked count
// identifies server-style processes still waiting for input — or, in a buggy
// model, a deadlock.
func (k *Kernel) Blocked() int { return k.parked }

// Close ends every live process and drops every pending event (see the
// package comment). Afterwards no process is live and Blocked reads 0.
func (k *Kernel) Close() {
	for len(k.live) > 0 {
		p := k.live[len(k.live)-1]
		if !p.started {
			k.retire(p)
			continue
		}
		p.killed = true
		p.wake <- struct{}{}
		<-k.ctl
		k.rethrow()
	}
	// Deferred calls of the unwound processes may have fired signals.
	k.events = nil
	k.parked = 0
}

// Proc is a simulated process: a goroutine scheduled cooperatively by the
// kernel. All Proc methods must be called from the process's own goroutine.
type Proc struct {
	k       *Kernel
	name    string
	fn      func(p *Proc)
	wake    chan struct{} // control passes to this process
	slot    int           // index in k.live
	started bool
	killed  bool // set by Close: unwind instead of resuming
}

// Spawn starts fn as a new process at the current simulation time. The
// process runs when the kernel reaches its first event.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) {
	p := &Proc{k: k, name: name, fn: fn, wake: make(chan struct{}, 1), slot: len(k.live)}
	k.live = append(k.live, p)
	k.schedule(k.now, event{p: p})
}

// main is the process goroutine, which starts out holding control. Once fn
// returns, the goroutine passes control on and exits.
func (p *Proc) main() {
	if p.body() {
		p.k.retire(p)
		p.k.yield(nil)
	}
}

// body runs the process function and reports whether it returned. If it
// panicked, or Close unwound it, body retires the process and hands control
// back to the goroutine in Run or Close, which rethrows any panic.
func (p *Proc) body() (returned bool) {
	k := p.k
	defer func() {
		if returned {
			return
		}
		k.retire(p)
		if r := recover(); r != nil {
			k.trap = r
		}
		k.ctl <- struct{}{}
	}()
	p.fn(p)
	return true
}

// retire removes a finished process from the live set.
func (k *Kernel) retire(p *Proc) {
	n := len(k.live) - 1
	last := k.live[n]
	k.live[p.slot] = last
	last.slot = p.slot
	k.live[n] = nil
	k.live = k.live[:n]
}

// rethrow re-raises a panic captured on a process goroutine, on the caller
// of Run.
func (k *Kernel) rethrow() {
	if k.trap != nil {
		t := k.trap
		k.trap = nil
		panic(t)
	}
}

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current simulation time.
func (p *Proc) Now() Time { return p.k.now }

// park passes control on and returns once the process is resumed, or unwinds
// the process if Close woke it.
func (p *Proc) park() {
	if p.k.yield(p) {
		return
	}
	<-p.wake
	if p.killed {
		runtime.Goexit()
	}
}

// Wait advances the process's view of time by d cycles. Wait(0) yields to
// other events scheduled at the current time. A nonzero Wait is the unit of
// modelled occupancy, so it becomes a busy-span on the process's trace track
// when tracing is enabled.
func (p *Proc) Wait(d Time) {
	k := p.k
	k.busy(p, d)
	t := k.now + d
	if !k.stopped && (k.limit == 0 || t <= k.limit) && (len(k.events) == 0 || k.events[0].at > t) {
		// The resume event would be the next one Run fires: take its
		// sequence number and keep running.
		k.seq++
		k.now = t
		return
	}
	k.schedule(t, event{p: p})
	p.park()
}

// String implements fmt.Stringer for diagnostics.
func (p *Proc) String() string { return fmt.Sprintf("proc(%s)", p.name) }
