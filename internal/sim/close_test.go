package sim

import (
	"runtime"
	"testing"
	"time"
)

// settleGoroutines waits for process goroutines that have already made
// their last handshake to exit, and reports the count it settled at.
func settleGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for i := 0; n > base && i < 200; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// checkClosed asserts that Close left nothing behind.
func checkClosed(t *testing.T, k *Kernel, base int) {
	t.Helper()
	if len(k.live) != 0 || k.Blocked() != 0 || len(k.events) != 0 {
		t.Fatalf("after Close: Procs=%d Blocked=%d events=%d, want 0 0 0", len(k.live), k.Blocked(), len(k.events))
	}
	if n := settleGoroutines(base); n > base {
		t.Fatalf("after Close: %d goroutines, %d before the kernel", n, base)
	}
}

func TestCloseEndsProcParkedOnSignal(t *testing.T) {
	base := runtime.NumGoroutine()
	k := New()
	s := NewSignal(k)
	var unwound, resumed bool
	k.Spawn("server", func(p *Proc) {
		defer func() { unwound = true }()
		s.Wait(p)
		resumed = true
	})
	k.Run(0)
	if len(k.live) != 1 || k.Blocked() != 1 {
		t.Fatalf("before Close: Procs=%d Blocked=%d, want 1 1", len(k.live), k.Blocked())
	}
	k.Close()
	if !unwound || resumed {
		t.Fatalf("unwound=%v resumed=%v, want true false", unwound, resumed)
	}
	checkClosed(t, k, base)
}

func TestCloseEndsProcParkedOnTimer(t *testing.T) {
	base := runtime.NumGoroutine()
	k := New()
	var unwound, resumed bool
	k.Spawn("sleeper", func(p *Proc) {
		defer func() { unwound = true }()
		p.Wait(100)
		resumed = true
	})
	if end := k.Run(10); end != 10 {
		t.Fatalf("Run(10) = %d", end)
	}
	if len(k.live) != 1 || len(k.events) == 0 {
		t.Fatalf("before Close: Procs=%d events=%d, want 1 and some", len(k.live), len(k.events))
	}
	k.Close()
	if !unwound || resumed {
		t.Fatalf("unwound=%v resumed=%v, want true false", unwound, resumed)
	}
	checkClosed(t, k, base)
}

func TestCloseDropsUnstartedProc(t *testing.T) {
	base := runtime.NumGoroutine()
	k := New()
	ran := false
	k.Spawn("never", func(p *Proc) { ran = true })
	if len(k.live) != 1 {
		t.Fatalf("Procs = %d after Spawn, want 1", len(k.live))
	}
	k.Close()
	if ran {
		t.Fatal("unstarted process ran")
	}
	checkClosed(t, k, base)
	// Nothing is left for a later Run.
	k.Run(0)
	if ran {
		t.Fatal("unstarted process ran after Close")
	}
}

// A deferred call that fires a Signal while Close unwinds its process (an
// engine releasing a port) must not leave events or waiters behind.
func TestCloseRunsDeferredFire(t *testing.T) {
	base := runtime.NumGoroutine()
	k := New()
	free := NewSignal(k)
	input := NewSignal(k)
	k.Spawn("holder", func(p *Proc) {
		defer free.Fire()
		input.Wait(p)
	})
	k.Spawn("contender", func(p *Proc) { free.Wait(p) })
	k.Run(0)
	if k.Blocked() != 2 {
		t.Fatalf("Blocked = %d, want 2", k.Blocked())
	}
	k.Close()
	checkClosed(t, k, base)
}

func TestCloseAfterProcPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	k := New()
	s := NewSignal(k)
	k.Spawn("server", func(p *Proc) { s.Wait(p) })
	k.Spawn("bomb", func(p *Proc) {
		k.After(1, func() {}) // make the next Wait park rather than run inline
		p.Wait(5)
		panic("boom")
	})
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want boom", r)
			}
		}()
		k.Run(0)
	}()
	k.Close()
	checkClosed(t, k, base)
}

// A callback that panics while a parked process's goroutine holds control
// must surface in Run without unwinding that bystander process, which stays
// parked until Close ends it.
func TestCallbackPanicOnProcGoroutine(t *testing.T) {
	for _, c := range []struct {
		name string
		arm  func(k *Kernel, s *Signal, bomb func())
	}{
		{"callback", func(k *Kernel, s *Signal, bomb func()) { k.At(5, bomb) }},
		{"notify", func(k *Kernel, s *Signal, bomb func()) { s.Notify(bomb); k.At(5, s.Fire) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			k := New()
			s := NewSignal(k)
			var unwound, resumed bool
			k.Spawn("holder", func(p *Proc) {
				defer func() { unwound = true }()
				c.arm(k, s, func() { panic("bang") })
				p.Wait(10) // parks: the bomb is due first, on this goroutine
				resumed = true
			})
			func() {
				defer func() {
					if r := recover(); r != "bang" {
						t.Fatalf("recovered %v, want bang", r)
					}
				}()
				k.Run(0)
			}()
			if unwound || resumed || len(k.live) != 1 {
				t.Fatalf("after the panic: unwound=%v resumed=%v Procs=%d, want false false 1", unwound, resumed, len(k.live))
			}
			k.Close()
			if !unwound || resumed {
				t.Fatalf("after Close: unwound=%v resumed=%v, want true false", unwound, resumed)
			}
			checkClosed(t, k, base)
		})
	}
}

// A process whose function has returned keeps firing events on its
// goroutine until control passes on; a callback that panics then must still
// reach Run's caller.
func TestCallbackPanicAfterProcReturns(t *testing.T) {
	for _, c := range []struct {
		name string
		arm  func(k *Kernel, bomb func())
	}{
		{"callback", func(k *Kernel, bomb func()) { k.At(5, bomb) }},
		{"notify", func(k *Kernel, bomb func()) {
			s := NewSignal(k)
			s.Notify(bomb)
			s.Fire()
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			k := New()
			s := NewSignal(k)
			k.Spawn("server", func(p *Proc) { s.Wait(p) })
			k.Spawn("quitter", func(p *Proc) { c.arm(k, func() { panic("late") }) })
			func() {
				defer func() {
					if r := recover(); r != "late" {
						t.Fatalf("recovered %v, want late", r)
					}
				}()
				k.Run(0)
			}()
			if len(k.live) != 1 || k.Blocked() != 1 {
				t.Fatalf("after the panic: Procs=%d Blocked=%d, want 1 1", len(k.live), k.Blocked())
			}
			k.Close()
			checkClosed(t, k, base)
		})
	}
}
