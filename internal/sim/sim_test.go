package sim

import (
	"bytes"
	"encoding/json"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	k := New()
	var order []int
	k.At(10, func() { order = append(order, 2) })
	k.At(5, func() { order = append(order, 1) })
	k.At(10, func() { order = append(order, 3) }) // same time: schedule order
	k.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if k.Now() != 10 {
		t.Fatalf("Now = %d, want 10", k.Now())
	}
}

func TestSchedulingInPastClampsToNow(t *testing.T) {
	k := New()
	var at Time
	k.At(100, func() {
		k.At(5, func() { at = k.Now() })
	})
	k.Run(0)
	if at != 100 {
		t.Fatalf("past event ran at %d, want 100", at)
	}
}

func TestRunLimit(t *testing.T) {
	k := New()
	fired := 0
	k.At(10, func() { fired++ })
	k.At(20, func() { fired++ })
	end := k.Run(15)
	if end != 15 || fired != 1 {
		t.Fatalf("end=%d fired=%d, want 15, 1", end, fired)
	}
	// The unfired event survives for a later Run.
	end = k.Run(0)
	if end != 20 || fired != 2 {
		t.Fatalf("end=%d fired=%d, want 20, 2", end, fired)
	}
}

func TestProcWait(t *testing.T) {
	k := New()
	var stamps []Time
	k.Spawn("w", func(p *Proc) {
		stamps = append(stamps, p.Now())
		p.Wait(7)
		stamps = append(stamps, p.Now())
		p.Wait(0)
		stamps = append(stamps, p.Now())
		p.Wait(100 - p.Now())
		stamps = append(stamps, p.Now())
	})
	k.Run(0)
	want := []Time{0, 7, 7, 100}
	if len(stamps) != len(want) {
		t.Fatalf("stamps = %v, want %v", stamps, want)
	}
	for i := range want {
		if stamps[i] != want[i] {
			t.Fatalf("stamps = %v, want %v", stamps, want)
		}
	}
	if len(k.live) != 0 {
		t.Fatalf("Procs = %d after completion, want 0", len(k.live))
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := New()
		var trace []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			k.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					trace = append(trace, name)
					p.Wait(2)
				}
			})
		}
		k.Run(0)
		return trace
	}
	first := run()
	if len(first) != 9 {
		t.Fatalf("trace length = %d, want 9", len(first))
	}
	for i := 0; i < 20; i++ {
		again := run()
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("nondeterministic trace: run %d differs at %d: %v vs %v", i, j, first, again)
			}
		}
	}
}

func TestSignalBroadcast(t *testing.T) {
	k := New()
	s := NewSignal(k)
	woken := 0
	for i := 0; i < 3; i++ {
		k.Spawn("waiter", func(p *Proc) {
			s.Wait(p)
			woken++
		})
	}
	k.Spawn("firer", func(p *Proc) {
		p.Wait(10)
		if len(s.waiters) != 3 {
			t.Errorf("Waiting = %d, want 3", len(s.waiters))
		}
		s.Fire()
	})
	k.Run(0)
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
	if k.Blocked() != 0 {
		t.Fatalf("Blocked = %d, want 0", k.Blocked())
	}
}

func TestBlockedCountsParkedWaiters(t *testing.T) {
	k := New()
	s := NewSignal(k)
	k.Spawn("stuck", func(p *Proc) { s.Wait(p) })
	k.Run(0)
	if k.Blocked() != 1 {
		t.Fatalf("Blocked = %d, want 1", k.Blocked())
	}
}

func TestQueueFIFOAndBlocking(t *testing.T) {
	k := New()
	q := NewQueue[int](k, 2)
	var got []int
	var putDone Time
	k.Spawn("producer", func(p *Proc) {
		q.Put(p, 1)
		q.Put(p, 2)
		q.Put(p, 3) // blocks: capacity 2
		putDone = p.Now()
	})
	k.Spawn("consumer", func(p *Proc) {
		p.Wait(50)
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p))
		}
	})
	k.Run(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v, want [1 2 3]", got)
	}
	if putDone != 50 {
		t.Fatalf("third Put completed at %d, want 50 (when consumer drained)", putDone)
	}
}

func TestQueueGetBlocksUntilPut(t *testing.T) {
	k := New()
	q := NewQueue[string](k, 0)
	var got string
	var at Time
	k.Spawn("consumer", func(p *Proc) {
		got = q.Get(p)
		at = p.Now()
	})
	k.Spawn("producer", func(p *Proc) {
		p.Wait(33)
		q.Put(p, "x")
	})
	k.Run(0)
	if got != "x" || at != 33 {
		t.Fatalf("got %q at %d, want \"x\" at 33", got, at)
	}
}

func TestQueueTryOps(t *testing.T) {
	k := New()
	q := NewQueue[int](k, 1)
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue succeeded")
	}
	if !q.TryPut(7) {
		t.Fatal("TryPut on empty queue failed")
	}
	if q.TryPut(8) {
		t.Fatal("TryPut past capacity succeeded")
	}
	if v, ok := q.Peek(); !ok || v != 7 {
		t.Fatalf("Peek = %v %v, want 7 true", v, ok)
	}
	if v, ok := q.TryGet(); !ok || v != 7 {
		t.Fatalf("TryGet = %v %v, want 7 true", v, ok)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d, want 0", q.Len())
	}
}

// Property: for any schedule of waits, each process observes time advancing by
// exactly the requested amounts.
func TestWaitAccumulationProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) > 64 {
			delays = delays[:64]
		}
		k := New()
		ok := true
		k.Spawn("p", func(p *Proc) {
			var expect Time
			for _, d := range delays {
				p.Wait(Time(d))
				expect += Time(d)
				if p.Now() != expect {
					ok = false
					return
				}
			}
		})
		k.Run(0)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStop(t *testing.T) {
	k := New()
	fired := 0
	k.At(1, func() { fired++; k.Stop() })
	k.At(2, func() { fired++ })
	k.Run(0)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (Stop should halt the loop)", fired)
	}
}

func TestProcPanicPropagatesToRun(t *testing.T) {
	k := New()
	k.Spawn("bomb", func(p *Proc) {
		p.Wait(5)
		panic("boom")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("process panic did not reach Run's caller")
		}
		if r != "boom" {
			t.Fatalf("panic value = %v", r)
		}
	}()
	k.Run(0)
}

func TestTracingRecordsSpansAndInstants(t *testing.T) {
	k := New()
	k.EnableTracing()
	k.Spawn("worker", func(p *Proc) {
		p.Wait(10)
		k.TraceInstant("events", "milestone")
		p.Wait(5)
	})
	k.Run(0)
	snap, _ := k.TraceSnapshot("")
	var spans, instants int
	var busyTotal Time
	for _, tr := range snap.Tracks {
		for _, e := range tr.Events {
			if e.Dur > 0 {
				spans++
				busyTotal += e.Dur
				if e.Name != "worker" {
					t.Errorf("span name %q", e.Name)
				}
			} else {
				instants++
				if e.Name != "milestone" || e.Start != 10 {
					t.Errorf("instant %+v", e)
				}
			}
		}
	}
	if spans != 2 || instants != 1 {
		t.Fatalf("spans=%d instants=%d, want 2, 1", spans, instants)
	}
	if busyTotal != 15 {
		t.Fatalf("busy total %d, want 15", busyTotal)
	}
}

func TestChromeTraceExport(t *testing.T) {
	k := New()
	k.EnableTracing()
	k.Spawn("p", func(p *Proc) { p.Wait(3) })
	k.Run(0)
	var buf bytes.Buffer
	if err := k.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("empty trace")
	}
	if evs[0]["ph"] != "X" && evs[0]["ph"] != "i" {
		t.Fatalf("bad phase %v", evs[0]["ph"])
	}
	// Disabled kernels refuse.
	if err := New().WriteChromeTrace(&buf); err == nil {
		t.Fatal("export without tracing succeeded")
	}
}

func TestTracingOffByDefaultCostsNothing(t *testing.T) {
	k := New()
	k.Spawn("p", func(p *Proc) { p.Wait(1) })
	k.Run(0)
	if _, ok := k.TraceSnapshot(""); k.TracingEnabled() || ok {
		t.Fatal("tracing state leaked")
	}
	k.TraceInstant("x", "y") // must be a harmless no-op
}

func TestNotifyRunsOnceInWaitOrder(t *testing.T) {
	k := New()
	s := NewSignal(k)
	var order []string
	k.Spawn("proc", func(p *Proc) {
		s.Wait(p)
		order = append(order, "proc")
	})
	k.Run(0)
	s.Notify(func() { order = append(order, "cont") })
	if len(s.waiters) != 2 || k.Blocked() != 1 {
		t.Fatalf("Waiting=%d Blocked=%d, want 2 1 (continuations are not blocked processes)", len(s.waiters), k.Blocked())
	}
	k.At(3, s.Fire)
	k.At(4, s.Fire) // nothing left to release
	k.Run(0)
	if len(order) != 2 || order[0] != "proc" || order[1] != "cont" {
		t.Fatalf("order = %v, want [proc cont]", order)
	}
}

func TestQueueNotify(t *testing.T) {
	k := New()
	q := NewQueue[int](k, 1)
	var got []int
	var get func()
	get = func() {
		for {
			v, ok := q.TryGet()
			if !ok {
				q.NotifyNotEmpty(get)
				return
			}
			got = append(got, v)
		}
	}
	k.After(0, get)
	k.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Wait(5)
			q.Put(p, i)
		}
	})
	var roomAt Time
	k.At(100, func() {
		q.TryPut(9)
		q.NotifyNotFull(func() { roomAt = k.Now() })
	})
	k.Run(0)
	if len(got) != 4 || got[0] != 1 || got[3] != 9 || roomAt != 100 {
		t.Fatalf("got %v, room at %d; want [1 2 3 9], 100", got, roomAt)
	}
}

// A process parked on a signal that a callback fires is resumed by its own
// goroutine, which fired the callback while parked: no handoff at all.
func TestHandoffsParkedProcResumesInPlace(t *testing.T) {
	k := New()
	s := NewSignal(k)
	done := false
	k.Spawn("waiter", func(p *Proc) {
		s.Wait(p)
		p.Wait(3)
		s.Wait(p)
		done = true
	})
	k.At(5, s.Fire)
	k.At(20, func() { s.Notify(func() {}); s.Fire() })
	k.Run(0)
	if !done || k.handoffs != 0 {
		t.Fatalf("done=%v handoffs=%d, want true 0", done, k.handoffs)
	}
}

// Two processes that resume each other pass control directly: exactly one
// handoff per resume, never a detour through Run's goroutine.
func TestHandoffsPingPong(t *testing.T) {
	k := New()
	ping, pong := NewSignal(k), NewSignal(k)
	const rounds = 50
	resumes := uint64(0)
	k.Spawn("pong", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			pong.Wait(p)
			resumes++
			ping.Fire()
		}
	})
	k.Spawn("ping", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			pong.Fire()
			ping.Wait(p)
			resumes++
		}
	})
	k.Run(0)
	if resumes != 2*rounds || k.handoffs != resumes {
		t.Fatalf("resumes=%d handoffs=%d, want %d %d", resumes, k.handoffs, 2*rounds, 2*rounds)
	}
}

// Firing a signal with a process waiter and a continuation waiter, and
// running both, allocates nothing once the kernel is warm.
func TestSignalFireAllocs(t *testing.T) {
	k := New()
	defer k.Close()
	s := NewSignal(k)
	k.Spawn("waiter", func(p *Proc) {
		for {
			s.Wait(p)
		}
	})
	k.Run(0)
	hits := 0
	cont := func() { hits++ }
	round := func() {
		s.Notify(cont)
		s.Fire()
		k.Run(0)
	}
	round() // warm up: the waiter list and the event heap reach their peak
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("%.1f allocations per Fire, want 0", n)
	}
	if k.Blocked() != 1 || hits != 102 {
		t.Fatalf("Blocked=%d hits=%d, want 1 102", k.Blocked(), hits)
	}
}

// A warm queue at capacity cycles Get and Put without allocating: TryGet
// advances a head index, and TryPut slides the items down only when the
// backing array is full.
func TestQueueSteadyStateAllocs(t *testing.T) {
	for _, capacity := range []int{1, 3, 8, 0} {
		k := New()
		q := NewQueue[int](k, capacity)
		depth := capacity
		if depth <= 0 {
			depth = 5 // unbounded: hold a steady backlog instead
		}
		next, want := 0, 0
		for ; next < depth; next++ {
			if !q.TryPut(next) {
				t.Fatalf("cap %d: TryPut %d refused below capacity", capacity, next)
			}
		}
		cycle := func() {
			v, ok := q.TryGet()
			if !ok || v != want {
				t.Fatalf("cap %d: TryGet = %d %v, want %d", capacity, v, ok, want)
			}
			want++
			if !q.TryPut(next) {
				t.Fatalf("cap %d: TryPut %d refused after a Get", capacity, next)
			}
			next++
		}
		for i := 0; i < 4*depth; i++ {
			cycle() // warm up: the backing array reaches its steady size
		}
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Fatalf("cap %d: %.1f allocations per Get/Put cycle, want 0", capacity, n)
		}
		if q.Len() != depth {
			t.Fatalf("cap %d: Len = %d, want %d", capacity, q.Len(), depth)
		}
	}
}
