// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a cycle-granular clock and fires events in (time,
// schedule-order) sequence. Simulated hardware agents run either as plain
// callbacks executed in kernel context, or as processes. Idle cycles cost
// nothing, which is what makes sweeping the full benchmark matrix cheap.
//
// # Processes
//
// A process is a goroutine that runs only while the kernel has handed it
// control. Run fires the process's resume event; the process runs until it
// waits for time to pass (Wait) or for a condition (Signal, Queue), then
// parks and hands control back before Run fires the next event. Exactly one
// goroutine executes model code at any moment, so execution is
// single-threaded in effect and fully deterministic.
//
// # Inline waits
//
// Parking costs two goroutine switches. Wait skips them when the resume event
// it would schedule is the very next event Run would fire: Stop has not been
// called, now+d is within Run's limit, and no pending event is due at or
// before now+d. The process then advances the clock and keeps running. It
// still takes a schedule sequence number, exactly as scheduling the event
// would, so event order and every simulated statistic are unchanged. Events
// already queued for the same time were scheduled earlier and fire first, so
// Wait(0) still yields to them.
//
// # Close
//
// Server-style processes (an engine waiting for a descriptor, a device
// waiting for input) are still parked when Run drains the event queue, and
// each one pins a goroutine and everything it references. Close ends them:
// a process parked on a Signal, a Queue or a timer is unwound with
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

type event struct {
	at  Time
	seq uint64
	fn  func()
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
	s[n] = event{} // release the closure
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
	now     Time
	seq     uint64
	limit   Time // the running Run's limit, for Wait's inline check
	events  eventHeap
	ctl     chan struct{} // handshake: a process signals it has parked or finished
	stopped bool
	live    []*Proc // processes spawned and not yet finished
	parked  int     // processes parked on a condition (not a timer)
	trap    any     // panic value captured from a process, rethrown in Run
	tr      *trace.Recorder
}

// New returns an empty kernel at time zero.
func New() *Kernel {
	return &Kernel{ctl: make(chan struct{})}
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// At schedules fn to run in kernel context at absolute time t. Scheduling in
// the past is treated as "now".
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		t = k.now
	}
	k.seq++
	k.events.push(event{at: t, seq: k.seq, fn: fn})
}

// After schedules fn to run in kernel context d cycles from now.
func (k *Kernel) After(d Time, fn func()) { k.At(k.now+d, fn) }

// Stop makes Run return after the event currently being processed.
func (k *Kernel) Stop() { k.stopped = true }

// Run fires events until the event queue is empty, Stop is called, or the
// clock would pass limit (limit 0 means no limit). It returns the time at
// which it stopped.
func (k *Kernel) Run(limit Time) Time {
	k.stopped = false
	k.limit = limit
	for len(k.events) > 0 && !k.stopped {
		if limit != 0 && k.events[0].at > limit {
			// Leave the event for a later Run call and stop the clock at
			// the limit.
			k.now = limit
			return k.now
		}
		e := k.events.pop()
		k.now = e.at
		e.fn()
	}
	return k.now
}

// Idle reports whether no events are pending.
func (k *Kernel) Idle() bool { return len(k.events) == 0 }

// Blocked returns the number of processes parked on a condition (a Signal or
// Queue) rather than on the clock. After Run drains the event queue, a
// nonzero Blocked count identifies server-style processes still waiting for
// input — or, in a buggy model, a deadlock.
func (k *Kernel) Blocked() int { return k.parked }

// Procs returns the number of live processes.
func (k *Kernel) Procs() int { return len(k.live) }

// Close ends every live process and drops every pending event (see the
// package comment). Afterwards Procs and Blocked read 0.
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
	k        *Kernel
	name     string
	wake     chan struct{}
	resumeFn func() // p.resume, bound once so scheduling it does not allocate
	slot     int    // index in k.live
	started  bool
	killed   bool // set by Close: unwind instead of resuming
}

// Spawn starts fn as a new process at the current simulation time. The
// process runs when the kernel reaches its first event.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) {
	p := &Proc{k: k, name: name, wake: make(chan struct{}), slot: len(k.live)}
	p.resumeFn = p.resume
	k.live = append(k.live, p)
	k.After(0, func() {
		p.started = true
		go func() {
			defer func() {
				k.retire(p)
				if r := recover(); r != nil {
					// Surface process panics on the kernel goroutine so
					// Run's caller sees them (and tests can recover them).
					k.trap = r
				}
				k.ctl <- struct{}{}
			}()
			fn(p)
		}()
		<-k.ctl
		k.rethrow()
	})
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

// rethrow re-raises a panic captured from a process, on the caller of Run.
func (k *Kernel) rethrow() {
	if k.trap != nil {
		t := k.trap
		k.trap = nil
		panic(t)
	}
}

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current simulation time.
func (p *Proc) Now() Time { return p.k.now }

// park hands control back to the kernel and blocks until resumed, or unwinds
// the process if Close woke it.
func (p *Proc) park() {
	p.k.ctl <- struct{}{}
	<-p.wake
	if p.killed {
		runtime.Goexit()
	}
}

// resume is scheduled as a kernel event to continue a parked process.
func (p *Proc) resume() {
	p.wake <- struct{}{}
	<-p.k.ctl
	p.k.rethrow()
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
	k.At(t, p.resumeFn)
	p.park()
}

// WaitUntil parks until absolute time t (no-op if t is in the past).
func (p *Proc) WaitUntil(t Time) {
	if t <= p.k.now {
		return
	}
	p.Wait(t - p.k.now)
}

// String implements fmt.Stringer for diagnostics.
func (p *Proc) String() string { return fmt.Sprintf("proc(%s)", p.name) }
