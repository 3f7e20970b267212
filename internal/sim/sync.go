package sim

// Signal is a broadcast condition: processes park on Wait, continuations
// queue with Notify, and the next Fire releases every one of them. Signals
// carry no data; pair them with guarded state and re-check the condition
// after waking (there is no spurious wakeup, but another agent may consume
// the state first).
type Signal struct {
	k       *Kernel
	waiters []waiter
}

// waiter is a parked process or a queued continuation.
type waiter struct {
	p  *Proc
	fn func()
}

// NewSignal returns a Signal bound to k.
func NewSignal(k *Kernel) *Signal { return &Signal{k: k} }

// Wait parks p until the next Fire.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, waiter{p: p})
	s.k.parked++
	p.park()
}

// Notify queues fn to run once, in kernel context, after the next Fire. It
// takes its turn among the waiters in call order, at the position a process
// calling Wait instead would resume. Bind fn once: Notify itself does not
// allocate once the waiter list has grown.
func (s *Signal) Notify(fn func()) {
	s.waiters = append(s.waiters, waiter{fn: fn})
}

// Fire releases every current waiter. Parked processes resume and
// continuations run at the current time, in the order they waited. Safe to
// call from kernel context or from a process.
func (s *Signal) Fire() {
	k := s.k
	for _, w := range s.waiters {
		if w.p != nil {
			k.parked--
		}
		k.schedule(k.now, event{p: w.p, fn: w.fn})
	}
	clear(s.waiters)
	s.waiters = s.waiters[:0]
}

// Queue is a FIFO mailbox between agents, modelling a hardware queue or
// channel of unbounded (capacity <= 0) or bounded capacity. Processes block
// in Get and Put; kernel-context state machines use TryGet and TryPut and
// notify themselves when the queue changes.
//
// The queued items are items[head:]. TryGet advances head instead of
// reslicing, so the backing array is kept: TryPut slides the items down to
// the front only when the array is full, and a warm queue does not allocate.
type Queue[T any] struct {
	k        *Kernel
	capacity int
	items    []T
	head     int
	notEmpty *Signal
	notFull  *Signal
}

// NewQueue returns a mailbox with the given capacity (<= 0 for unbounded).
func NewQueue[T any](k *Kernel, capacity int) *Queue[T] {
	return &Queue[T]{k: k, capacity: capacity, notEmpty: NewSignal(k), notFull: NewSignal(k)}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// TryPut appends v if there is room and reports whether it did. Safe from
// kernel context.
func (q *Queue[T]) TryPut(v T) bool {
	n := q.Len()
	if q.capacity > 0 && n >= q.capacity {
		return false
	}
	if len(q.items) == cap(q.items) && q.head > 0 && 2*q.head >= n {
		// The backing array is full but at least as many slots are free
		// at its front as items are queued: slide the items down instead
		// of growing. The TryGets that freed the slots pay for the copy;
		// with fewer free slots, append grows the array as usual.
		copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
	q.notEmpty.Fire()
	return true
}

// NotifyNotEmpty queues fn to run once after the next TryPut (see
// Signal.Notify). The item may be gone by then: re-check with TryGet.
func (q *Queue[T]) NotifyNotEmpty(fn func()) { q.notEmpty.Notify(fn) }

// NotifyNotFull queues fn to run once after the next TryGet (see
// Signal.Notify). The room may be gone by then: re-check with TryPut.
func (q *Queue[T]) NotifyNotFull(fn func()) { q.notFull.Notify(fn) }

// Put appends v, parking p until there is room.
func (q *Queue[T]) Put(p *Proc, v T) {
	for !q.TryPut(v) {
		q.notFull.Wait(p)
	}
}

// TryGet removes and returns the head item if present.
func (q *Queue[T]) TryGet() (T, bool) {
	var zero T
	if q.Len() == 0 {
		return zero, false
	}
	v := q.items[q.head]
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0 // empty: rewind to the front
	}
	q.notFull.Fire()
	return v, true
}

// Get removes and returns the head item, parking p until one is available.
func (q *Queue[T]) Get(p *Proc) T {
	for {
		if v, ok := q.TryGet(); ok {
			return v
		}
		q.notEmpty.Wait(p)
	}
}

// Peek returns the head item without removing it.
func (q *Queue[T]) Peek() (T, bool) {
	var zero T
	if q.Len() == 0 {
		return zero, false
	}
	return q.items[q.head], true
}
