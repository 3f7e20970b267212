package cohort

import "sync/atomic"

// Bell is a queue doorbell: the software analogue of the cache-line
// invalidation that wakes a Cohort engine monitoring a queue index (§4.2).
// A Fifo with a bell attached (OnPush, OnPop) rings it on every index
// publication; a goroutine with nothing to do parks on the bell instead of
// polling on a timer.
//
// The parked side follows one protocol:
//
//	b.Arm()
//	if <last look at the watched queues finds work> {
//		b.Disarm() // and go do it
//	} else {
//		<-b.C()    // (in a select with any shutdown channel)
//		b.Disarm()
//	}
//
// Arm is an atomic increment and Ring an atomic load, both sequentially
// consistent, as are the Fifo index store and load between them. So either
// the publisher's Ring sees the waiter armed and leaves a token, or the
// waiter's last look sees the publication: no wakeup is lost. A ring with
// nobody armed costs one atomic load and leaves nothing behind.
//
// Tokens coalesce: C is buffered 1, so any number of rings while armed
// leave at most one pending wakeup, and a token can outlive the wait it was
// meant for (the waiter found work on its last look). A woken waiter must
// therefore re-check its queues and park again if they are still empty.
// Several goroutines may park on one bell; a ring wakes one of them.
type Bell struct {
	armed atomic.Int32
	c     chan struct{}
}

// NewBell returns a bell with nobody armed.
func NewBell() *Bell { return &Bell{c: make(chan struct{}, 1)} }

// Arm announces a waiter: rings from here on leave a token on C. Call it
// before the last look at the watched queues.
func (b *Bell) Arm() { b.armed.Add(1) }

// Disarm withdraws a waiter armed with Arm, whether it waited or not.
func (b *Bell) Disarm() { b.armed.Add(-1) }

// C returns the channel an armed waiter blocks on.
func (b *Bell) C() <-chan struct{} { return b.c }

// Ring wakes an armed waiter, if there is one. Safe from any goroutine.
func (b *Bell) Ring() {
	if b.armed.Load() == 0 {
		return
	}
	select {
	case b.c <- struct{}{}:
	default: // a token is already pending: the wakeups merge
	}
}

// ring rings b when a bell is attached: the per-publication hook of Fifo.
func ring(p *atomic.Pointer[Bell]) {
	if b := p.Load(); b != nil {
		b.Ring()
	}
}
