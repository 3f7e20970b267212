package sim

// Signal is a broadcast condition: processes park on Wait and every parked
// process is released by the next Fire. Signals carry no data; pair them with
// guarded state and re-check the condition after waking (there is no spurious
// wakeup, but another process may consume the state first).
type Signal struct {
	k       *Kernel
	waiters []*Proc
}

// NewSignal returns a Signal bound to k.
func NewSignal(k *Kernel) *Signal { return &Signal{k: k} }

// Wait parks p until the next Fire.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	s.k.parked++
	p.park()
}

// Fire releases every currently-parked waiter. Waiters resume at the current
// time, in the order they called Wait. Safe to call from kernel context or
// from a process.
func (s *Signal) Fire() {
	for _, w := range s.waiters {
		s.k.parked--
		s.k.After(0, w.resumeFn)
	}
	clear(s.waiters)
	s.waiters = s.waiters[:0]
}

// Waiting returns the number of parked processes.
func (s *Signal) Waiting() int { return len(s.waiters) }

// Queue is a FIFO mailbox between processes, modelling a hardware queue or
// channel of unbounded (capacity <= 0) or bounded capacity.
type Queue[T any] struct {
	k        *Kernel
	capacity int
	items    []T
	notEmpty *Signal
	notFull  *Signal
}

// NewQueue returns a mailbox with the given capacity (<= 0 for unbounded).
func NewQueue[T any](k *Kernel, capacity int) *Queue[T] {
	return &Queue[T]{k: k, capacity: capacity, notEmpty: NewSignal(k), notFull: NewSignal(k)}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

// TryPut appends v if there is room and reports whether it did. Safe from
// kernel context.
func (q *Queue[T]) TryPut(v T) bool {
	if q.capacity > 0 && len(q.items) >= q.capacity {
		return false
	}
	q.items = append(q.items, v)
	q.notEmpty.Fire()
	return true
}

// Put appends v, parking p until there is room.
func (q *Queue[T]) Put(p *Proc, v T) {
	for !q.TryPut(v) {
		q.notFull.Wait(p)
	}
}

// TryGet removes and returns the head item if present.
func (q *Queue[T]) TryGet() (T, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	v := q.items[0]
	q.items = q.items[1:]
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
	if len(q.items) == 0 {
		return zero, false
	}
	return q.items[0], true
}
