package sim

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// The property test below runs random programs on the kernel and on a naive
// reference scheduler that keeps its events in a sorted slice and never runs
// a Wait inline. Both must produce the same log of (now, who, step, val)
// entries. Programs also Put to and Get from bounded and unbounded queues,
// which the reference keeps as plain slices, so the values a Get returns
// check the kernel's queues for FIFO order across their compactions.

type opKind int

const (
	opWait    opKind = iota // Wait(d)
	opWaitSig               // park on signal sig
	opFire                  // fire signal sig
	opAt                    // schedule a kernel callback d cycles ahead; it fires sig if sig >= 0
	opNotify                // queue a continuation on signal sig; it fires signal arg if arg >= 0
	opStop                  // Stop
	opSpawn                 // spawn a process running script arg
	opPut                   // Put the next value to queue sig, parking while it is full
	opGet                   // Get from queue sig, parking while it is empty
)

type op struct {
	kind opKind
	d    Time
	sig  int
	arg  int
}

type program struct {
	scripts [][]op // the first nInit are spawned before Run; the rest only by opSpawn
	nInit   int
	nSig    int
	queues  []int  // queue capacities (<= 0 unbounded)
	pre     []op   // opAt callbacks and opNotify continuations queued before Run
	limits  []Time // Run limits, in order; the kernel is then drained with Run(0)
}

// logEntry records a process executing step `step` (len(script) = exit), a
// callback or continuation firing (who < 0), or Run returning (who == runMark).
// A Put or Get that completes logs its step a second time with the value it
// put or got in val.
type logEntry struct {
	now  Time
	who  int
	step int
	val  int
}

const runMark = -1 << 20

func genProgram(rng *rand.Rand) program {
	pg := program{nInit: 1 + rng.Intn(4), nSig: 1 + rng.Intn(2)}
	for i := 1 + rng.Intn(2); i > 0; i-- {
		pg.queues = append(pg.queues, rng.Intn(4))
	}
	nScripts := pg.nInit + rng.Intn(3)
	delays := []Time{0, 0, 1, 1, 2, 3, 7}
	genOp := func(canSpawn bool) op {
		if rng.Intn(10) < 3 {
			// Queue traffic dense enough that the queues fill, drain and
			// compact their backing arrays.
			if rng.Intn(2) == 0 {
				return op{kind: opPut, sig: rng.Intn(len(pg.queues))}
			}
			return op{kind: opGet, sig: rng.Intn(len(pg.queues))}
		}
		sig := rng.Intn(pg.nSig)
		switch r := rng.Intn(100); {
		case r < 40:
			return op{kind: opWait, d: delays[rng.Intn(len(delays))]}
		case r < 55:
			return op{kind: opWaitSig, sig: sig}
		case r < 70:
			return op{kind: opFire, sig: sig}
		case r < 78:
			return op{kind: opAt, d: Time(rng.Intn(4)), sig: rng.Intn(pg.nSig+1) - 1}
		case r < 84:
			return op{kind: opNotify, sig: sig, arg: rng.Intn(pg.nSig+1) - 1}
		case r < 89:
			return op{kind: opStop}
		case canSpawn && nScripts > pg.nInit:
			return op{kind: opSpawn, arg: pg.nInit + rng.Intn(nScripts-pg.nInit)}
		default:
			return op{kind: opWait, d: 0}
		}
	}
	for i := 0; i < nScripts; i++ {
		script := make([]op, 1+rng.Intn(12))
		for j := range script {
			script[j] = genOp(i < pg.nInit)
		}
		pg.scripts = append(pg.scripts, script)
	}
	for i := rng.Intn(4); i > 0; i-- {
		if rng.Intn(3) == 0 {
			pg.pre = append(pg.pre, op{kind: opNotify, sig: rng.Intn(pg.nSig), arg: rng.Intn(pg.nSig+1) - 1})
			continue
		}
		pg.pre = append(pg.pre, op{kind: opAt, d: Time(rng.Intn(6)), sig: rng.Intn(pg.nSig+1) - 1})
	}
	limit := Time(0)
	for i := rng.Intn(4); i > 0; i-- {
		limit += 1 + Time(rng.Intn(12))
		pg.limits = append(pg.limits, limit)
	}
	return pg
}

// runKernel executes pg on the kernel and returns its log plus the Blocked
// and Procs counts once the event queue has drained.
func runKernel(pg program) (log []logEntry, blocked, procs int) {
	k := New()
	sigs := make([]*Signal, pg.nSig)
	for i := range sigs {
		sigs[i] = NewSignal(k)
	}
	queues := make([]*Queue[int], len(pg.queues))
	for i, c := range pg.queues {
		queues[i] = NewQueue[int](k, c)
	}
	nextProc, nextCB, nextVal := 0, 0, 0
	// callback returns a new kernel-context callback that logs itself and
	// fires signal fire, if fire >= 0.
	callback := func(fire int) func() {
		id := nextCB
		nextCB++
		return func() {
			log = append(log, logEntry{k.Now(), -1 - id, 0, 0})
			if fire >= 0 {
				sigs[fire].Fire()
			}
		}
	}
	pre := func(o op) {
		if o.kind == opNotify {
			sigs[o.sig].Notify(callback(o.arg))
			return
		}
		k.After(o.d, callback(o.sig))
	}
	var spawn func(script int)
	spawn = func(script int) {
		id := nextProc
		nextProc++
		ops := pg.scripts[script]
		k.Spawn("p", func(p *Proc) {
			for pc, o := range ops {
				log = append(log, logEntry{p.Now(), id, pc, 0})
				switch o.kind {
				case opWait:
					p.Wait(o.d)
				case opWaitSig:
					sigs[o.sig].Wait(p)
				case opFire:
					sigs[o.sig].Fire()
				case opAt, opNotify:
					pre(o)
				case opStop:
					k.Stop()
				case opSpawn:
					spawn(o.arg)
				case opPut:
					nextVal++
					v := nextVal
					queues[o.sig].Put(p, v)
					log = append(log, logEntry{p.Now(), id, pc, v})
				case opGet:
					v := queues[o.sig].Get(p)
					log = append(log, logEntry{p.Now(), id, pc, v})
				}
			}
			log = append(log, logEntry{p.Now(), id, len(ops), 0})
		})
	}
	for i := 0; i < pg.nInit; i++ {
		spawn(i)
	}
	for _, o := range pg.pre {
		pre(o)
	}
	for i, l := range pg.limits {
		log = append(log, logEntry{k.Run(l), runMark, i, 0})
	}
	for i := len(pg.limits); len(k.events) != 0; i++ {
		log = append(log, logEntry{k.Run(0), runMark, i, 0})
	}
	blocked, procs = k.Blocked(), len(k.live)
	k.Close()
	return log, blocked, procs
}

// refKernel is the reference scheduler: processes are script cursors, every
// Wait schedules an event, and the next event is found by sorting.
//
// Queue i is the slice queues[i], whose not-empty and not-full conditions
// are signals nSig+2i and nSig+2i+1. A process parked in a Put or Get keeps
// its step and retries it when resumed, as Queue.Put and Queue.Get loop.
type refKernel struct {
	pg      *program
	now     Time
	seq     uint64
	stopped bool
	events  []refEvent
	waiters [][]refEvent // per signal: parked processes and continuations, in wait order
	pcs     []int        // per process: next step; len(script)+1 once exited
	scripts []int        // per process: script index
	retry   []int        // per process: the value a parked Put retries, or -1 for a parked Get; 0 if not parked in either
	queues  [][]int
	live    int
	nextCB  int
	nextVal int
	log     []logEntry
}

type refEvent struct {
	at   Time
	seq  uint64
	proc int // process to step, or -1 for a callback
	cb   int
	sig  int
}

func (r *refKernel) schedule(e refEvent) {
	r.seq++
	e.seq = r.seq
	r.events = append(r.events, e)
}

// callback returns a new callback event that fires signal fire, if fire >= 0.
func (r *refKernel) callback(fire int) refEvent {
	r.nextCB++
	return refEvent{proc: -1, cb: r.nextCB - 1, sig: fire}
}

func (r *refKernel) pre(o op) {
	if o.kind == opNotify {
		r.waiters[o.sig] = append(r.waiters[o.sig], r.callback(o.arg))
		return
	}
	e := r.callback(o.sig)
	e.at = r.now + o.d
	r.schedule(e)
}

func (r *refKernel) spawn(script int) {
	r.pcs = append(r.pcs, 0)
	r.scripts = append(r.scripts, script)
	r.retry = append(r.retry, 0)
	r.live++
	r.schedule(refEvent{at: r.now, proc: len(r.pcs) - 1})
}

func (r *refKernel) fire(sig int) {
	for _, w := range r.waiters[sig] {
		w.at = r.now
		r.schedule(w)
	}
	r.waiters[sig] = nil
}

func (r *refKernel) run(limit Time) Time {
	r.stopped = false
	for len(r.events) > 0 && !r.stopped {
		sort.Slice(r.events, func(i, j int) bool {
			a, b := r.events[i], r.events[j]
			return a.at < b.at || a.at == b.at && a.seq < b.seq
		})
		e := r.events[0]
		if limit != 0 && e.at > limit {
			r.now = limit
			return r.now
		}
		r.events = r.events[1:]
		r.now = e.at
		if e.proc < 0 {
			r.log = append(r.log, logEntry{r.now, -1 - e.cb, 0, 0})
			if e.sig >= 0 {
				r.fire(e.sig)
			}
			continue
		}
		r.step(e.proc)
	}
	return r.now
}

// step runs process id until it blocks or exits.
func (r *refKernel) step(id int) {
	ops := r.pg.scripts[r.scripts[id]]
	for r.pcs[id] < len(ops) {
		pc := r.pcs[id]
		o := ops[pc]
		switch o.kind {
		case opPut:
			v := r.retry[id]
			if v == 0 {
				r.log = append(r.log, logEntry{r.now, id, pc, 0})
				r.nextVal++
				v = r.nextVal
			}
			q := r.queues[o.sig]
			if c := r.pg.queues[o.sig]; c > 0 && len(q) >= c {
				r.retry[id] = v
				r.waiters[r.pg.nSig+2*o.sig+1] = append(r.waiters[r.pg.nSig+2*o.sig+1], refEvent{proc: id})
				return
			}
			r.queues[o.sig] = append(q, v)
			r.fire(r.pg.nSig + 2*o.sig)
			r.retry[id] = 0
			r.log = append(r.log, logEntry{r.now, id, pc, v})
			r.pcs[id]++
			continue
		case opGet:
			if r.retry[id] == 0 {
				r.log = append(r.log, logEntry{r.now, id, pc, 0})
			}
			q := r.queues[o.sig]
			if len(q) == 0 {
				r.retry[id] = -1
				r.waiters[r.pg.nSig+2*o.sig] = append(r.waiters[r.pg.nSig+2*o.sig], refEvent{proc: id})
				return
			}
			r.queues[o.sig] = q[1:]
			r.fire(r.pg.nSig + 2*o.sig + 1)
			r.retry[id] = 0
			r.log = append(r.log, logEntry{r.now, id, pc, q[0]})
			r.pcs[id]++
			continue
		}
		r.log = append(r.log, logEntry{r.now, id, pc, 0})
		r.pcs[id]++
		switch o.kind {
		case opWait:
			r.schedule(refEvent{at: r.now + o.d, proc: id})
			return
		case opWaitSig:
			r.waiters[o.sig] = append(r.waiters[o.sig], refEvent{proc: id})
			return
		case opFire:
			r.fire(o.sig)
		case opAt, opNotify:
			r.pre(o)
		case opStop:
			r.stopped = true
		case opSpawn:
			r.spawn(o.arg)
		}
	}
	r.log = append(r.log, logEntry{r.now, id, len(ops), 0})
	r.pcs[id]++
	r.live--
}

func runReference(pg program) (log []logEntry, blocked, procs int) {
	r := &refKernel{pg: &pg, waiters: make([][]refEvent, pg.nSig+2*len(pg.queues)),
		queues: make([][]int, len(pg.queues))}
	for i := 0; i < pg.nInit; i++ {
		r.spawn(i)
	}
	for _, o := range pg.pre {
		r.pre(o)
	}
	for i, l := range pg.limits {
		r.log = append(r.log, logEntry{r.run(l), runMark, i, 0})
	}
	for i := len(pg.limits); len(r.events) > 0; i++ {
		r.log = append(r.log, logEntry{r.run(0), runMark, i, 0})
	}
	for _, ws := range r.waiters {
		for _, w := range ws {
			if w.proc >= 0 {
				blocked++ // continuations are not blocked processes
			}
		}
	}
	return r.log, blocked, r.live
}

func TestScheduleMatchesReferenceProperty(t *testing.T) {
	base := runtime.NumGoroutine()
	for seed := int64(1); seed <= 500; seed++ {
		pg := genProgram(rand.New(rand.NewSource(seed)))
		got, gotBlocked, gotProcs := runKernel(pg)
		want, wantBlocked, wantProcs := runReference(pg)
		if gotBlocked != wantBlocked || gotProcs != wantProcs {
			t.Fatalf("seed %d: Blocked=%d Procs=%d, reference %d %d", seed, gotBlocked, gotProcs, wantBlocked, wantProcs)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log entries, reference %d\n got %v\nwant %v", seed, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: entry %d = %v, reference %v\n got %v\nwant %v", seed, i, got[i], want[i], got, want)
			}
		}
	}
	if n := settleGoroutines(base); n > base {
		t.Fatalf("%d goroutines after closing every kernel, %d before", n, base)
	}
}
