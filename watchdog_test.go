package cohort

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gateAcc blocks Process until its gate is released — a wedged accelerator.
type gateAcc struct {
	gate chan struct{}
	out  [1]Word
	once sync.Once
}

func newGateAcc() *gateAcc                    { return &gateAcc{gate: make(chan struct{})} }
func (g *gateAcc) release()                   { g.once.Do(func() { close(g.gate) }) }
func (g *gateAcc) Name() string               { return "gate" }
func (g *gateAcc) InWords() int               { return 1 }
func (g *gateAcc) OutWords() int              { return 1 }
func (g *gateAcc) Configure(csr []byte) error { return nil }
func (g *gateAcc) Process(in []Word) ([]Word, error) {
	<-g.gate
	g.out[0] = in[0]
	return g.out[:], nil
}

// TestWatchdogDetectsStallAndRecovery is the tentpole's watchdog check: a
// wedged engine with pending input is detected within the window (metric,
// callback, flight dump), and recovers to healthy once it drains.
func TestWatchdogDetectsStallAndRecovery(t *testing.T) {
	acc := newGateAcc()
	in, _ := NewFifo[Word](256)
	out, _ := NewFifo[Word](256)
	fr := NewFlightRecorder(64)
	e, err := Register(acc, in, out, WithFlightRecorder(fr, "gated"))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Unregister()
	defer acc.release()

	events := make(chan StallEvent, 4)
	w := NewWatchdog(25*time.Millisecond,
		WithPollEvery(5*time.Millisecond),
		WithStallCallback(func(ev StallEvent) { events <- ev }),
		WithStallDump(fr))
	defer w.Stop()
	w.Watch("gated", e)

	// Feed it: the engine drains a batch, then wedges inside Process with
	// words still queued.
	in.PushSlice(make([]Word, 64))

	select {
	case ev := <-events:
		if ev.Engine != "gated" {
			t.Errorf("stall event for %q, want gated", ev.Engine)
		}
		if ev.Idle < 25*time.Millisecond {
			t.Errorf("stall fired after only %v idle, window is 25ms", ev.Idle)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never detected the stall")
	}
	if w.Stalls() != 1 {
		t.Errorf("Stalls() = %d, want 1", w.Stalls())
	}
	if fr.Dumps() == 0 {
		t.Error("stall did not dump the flight recorder")
	}
	hs := w.Health()
	if len(hs) != 1 || !hs[0].Stalled || hs[0].Err != nil {
		t.Errorf("Health() = %+v, want one stalled healthy-error entry", hs)
	}

	// Recovery: release the gate, let the engine drain everything.
	acc.release()
	buf := make([]Word, 64)
	out.PopSlice(buf)
	deadline := time.After(5 * time.Second)
	for {
		hs = w.Health()
		if len(hs) == 1 && !hs[0].Stalled {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("engine never recovered: %+v", hs)
		default:
			time.Sleep(2 * time.Millisecond)
		}
	}
	if w.Stalls() != 1 {
		t.Errorf("Stalls() after recovery = %d, want still 1 (edge-triggered)", w.Stalls())
	}
}

// TestWatchdogRecoveryCallback pins the other edge of the stall state
// machine: when a stalled component makes progress again, the recovery
// callback fires once with the stall's duration, and Recoveries() counts the
// transition.
func TestWatchdogRecoveryCallback(t *testing.T) {
	var progress, pending atomic.Uint64
	pending.Store(1)

	stalls := make(chan StallEvent, 4)
	recoveries := make(chan StallEvent, 4)
	w := NewWatchdog(25*time.Millisecond,
		WithPollEvery(5*time.Millisecond),
		WithStallCallback(func(ev StallEvent) { stalls <- ev }),
		WithRecoveryCallback(func(ev StallEvent) { recoveries <- ev }))
	defer w.Stop()
	w.WatchProbe("pump", func() Probe {
		return Probe{Progress: progress.Load(), Pending: pending.Load() != 0}
	})

	select {
	case <-stalls:
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never detected the stall")
	}
	if w.Recoveries() != 0 {
		t.Fatalf("Recoveries() = %d before any progress", w.Recoveries())
	}

	progress.Add(1) // the component moves again
	select {
	case ev := <-recoveries:
		if ev.Engine != "pump" {
			t.Errorf("recovery event for %q, want pump", ev.Engine)
		}
		if ev.Idle < 25*time.Millisecond {
			t.Errorf("recovery reports %v stall duration, want >= window", ev.Idle)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never fired the recovery callback")
	}
	if w.Recoveries() != 1 {
		t.Errorf("Recoveries() = %d, want 1", w.Recoveries())
	}

	// Steady progress fires no further recovery edges.
	progress.Add(1)
	time.Sleep(20 * time.Millisecond)
	select {
	case ev := <-recoveries:
		t.Fatalf("spurious recovery event %+v", ev)
	default:
	}
}

// wideGateAcc is gateAcc with an 8-word block, so a single pushed block is
// fully absorbed into the engine's batch buffer before Process wedges.
type wideGateAcc struct {
	gate chan struct{}
	out  [8]Word
	once sync.Once
}

func newWideGateAcc() *wideGateAcc                { return &wideGateAcc{gate: make(chan struct{})} }
func (g *wideGateAcc) release()                   { g.once.Do(func() { close(g.gate) }) }
func (g *wideGateAcc) Name() string               { return "wide-gate" }
func (g *wideGateAcc) InWords() int               { return 8 }
func (g *wideGateAcc) OutWords() int              { return 8 }
func (g *wideGateAcc) Configure(csr []byte) error { return nil }
func (g *wideGateAcc) Process(in []Word) ([]Word, error) {
	<-g.gate
	copy(g.out[:], in)
	return g.out[:], nil
}

// TestWatchdogDetectsStallWithEmptyFifo: an engine that drained its only
// pending block into the private batch buffer and then wedged inside Process
// is stalled, not idle, even though the input fifo reads empty — the
// WordsIn > Blocks·InWords imbalance exposes the in-flight work.
func TestWatchdogDetectsStallWithEmptyFifo(t *testing.T) {
	acc := newWideGateAcc()
	in, _ := NewFifo[Word](256)
	out, _ := NewFifo[Word](256)
	e, err := Register(acc, in, out)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Unregister()
	defer acc.release()

	events := make(chan StallEvent, 4)
	w := NewWatchdog(25*time.Millisecond,
		WithPollEvery(5*time.Millisecond),
		WithStallCallback(func(ev StallEvent) { events <- ev }))
	defer w.Stop()
	w.Watch("wide", e)

	// One block: the engine absorbs all 8 words (fifo empties), then wedges.
	in.PushSlice(make([]Word, 8))

	select {
	case ev := <-events:
		if ev.Engine != "wide" {
			t.Errorf("stall event for %q, want wide", ev.Engine)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog treated a wedged engine with buffered work as idle")
	}
	if n := in.Len(); n != 0 {
		t.Errorf("fifo should be fully drained during the stall, Len()=%d", n)
	}

	// Recovery: open the gate, drain the output, watch health clear.
	acc.release()
	out.PopSlice(make([]Word, 8))
	deadline := time.After(5 * time.Second)
	for {
		hs := w.Health()
		if len(hs) == 1 && !hs[0].Stalled {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("engine never recovered: %+v", hs)
		default:
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// TestWatchdogIdleEngineIsHealthy: no input pending means idle, not stalled,
// no matter how many windows pass.
func TestWatchdogIdleEngineIsHealthy(t *testing.T) {
	in, _ := NewFifo[Word](16)
	out, _ := NewFifo[Word](16)
	e, err := Register(NewNull(), in, out)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Unregister()
	w := NewWatchdog(10*time.Millisecond, WithPollEvery(2*time.Millisecond))
	defer w.Stop()
	w.Watch("idle", e)
	time.Sleep(60 * time.Millisecond) // several windows
	if n := w.Stalls(); n != 0 {
		t.Errorf("idle engine produced %d stalls", n)
	}
	hs := w.Health()
	if len(hs) != 1 || hs[0].Stalled {
		t.Errorf("Health() = %+v, want one healthy entry", hs)
	}
	if hs[0].Idle < 50*time.Millisecond {
		t.Errorf("Idle = %v, want the full lull reported", hs[0].Idle)
	}
}

// TestWatchdogParkedEngineReportsErrNotStall: a terminal accelerator error
// surfaces through Health().Err, and does not count as a stall.
func TestWatchdogParkedEngineReportsErrNotStall(t *testing.T) {
	in, _ := NewFifo[Word](16)
	out, _ := NewFifo[Word](16)
	e, err := Register(&failAfter{ok: 0}, in, out)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Unregister()
	w := NewWatchdog(10*time.Millisecond, WithPollEvery(2*time.Millisecond))
	defer w.Stop()
	w.Watch("doomed", e)
	in.PushSlice([]Word{1, 2, 3, 4})
	deadline := time.After(5 * time.Second)
	for e.Err() == nil {
		select {
		case <-deadline:
			t.Fatal("engine never parked")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	time.Sleep(30 * time.Millisecond) // several windows past the park
	hs := w.Health()
	if len(hs) != 1 || hs[0].Err == nil {
		t.Fatalf("Health() = %+v, want the terminal error surfaced", hs)
	}
	if hs[0].Stalled {
		t.Error("parked engine also reported as stalled")
	}
	if w.Stalls() != 0 {
		t.Errorf("Stalls() = %d, want 0 for a parked engine", w.Stalls())
	}
}

// TestRegisterWatchdogMetrics: the watchdog's registry source.
func TestRegisterWatchdogMetrics(t *testing.T) {
	in, _ := NewFifo[Word](16)
	out, _ := NewFifo[Word](16)
	e, err := Register(NewNull(), in, out)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Unregister()
	w := NewWatchdog(time.Second)
	defer w.Stop()
	w.Watch("a", e)
	reg := NewRegistry()
	RegisterWatchdog(reg, "watchdog", w)
	s := reg.String()
	for _, want := range []string{"watchdog:", "stalls", "watched"} {
		if !strings.Contains(s, want) {
			t.Errorf("registry output missing %q:\n%s", want, s)
		}
	}
	snap := reg.Snapshot()
	found := false
	for _, m := range snap[0].Metrics {
		if m.Name == "watched" && m.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("watched != 1 in %+v", snap)
	}
}

// TestWatchdogParkedStallWindow drives scan with synthetic times over a
// component that makes no progress while idle — a scheduler worker parked
// on its doorbell. Work arriving after a long lull gets a whole window from
// the last idle scan before it counts as a stall; the lull itself neither
// stalls nor moves the progress clock Health().Idle reads.
func TestWatchdogParkedStallWindow(t *testing.T) {
	const window = 30 * time.Millisecond
	w := NewWatchdog(window, WithPollEvery(time.Hour)) // scans only by hand
	defer w.Stop()
	var progress uint64
	pending := false
	w.WatchProbe("parked", func() Probe { return Probe{Progress: progress, Pending: pending} })
	en := w.watched["parked"]
	t0 := en.lastMove
	at := func(d time.Duration) time.Time { return t0.Add(d) }

	w.scan(at(10 * time.Millisecond))
	w.scan(at(100 * time.Millisecond)) // a lull of three windows
	if n := w.Stalls(); n != 0 {
		t.Fatalf("idle lull produced %d stalls", n)
	}
	if !en.lastMove.Equal(t0) {
		t.Fatalf("idle scans moved the progress clock to %v", en.lastMove.Sub(t0))
	}

	pending = true // work arrives; the parked worker has not woken yet
	w.scan(at(105 * time.Millisecond))
	w.scan(at(129 * time.Millisecond))
	if n := w.Stalls(); n != 0 {
		t.Fatalf("stall declared %d times within a window of the last idle scan", n)
	}
	var ev StallEvent
	w.onStall = func(e StallEvent) { ev = e }
	w.scan(at(131 * time.Millisecond))
	if n := w.Stalls(); n != 1 || !en.stalled {
		t.Fatalf("no stall a full window after work arrived (stalls %d)", n)
	}
	if ev.Idle != 31*time.Millisecond {
		t.Errorf("stall event Idle = %v, want 31ms: pending-without-progress time", ev.Idle)
	}

	progress++ // the worker moves: recovery, measured from the last progress
	w.scan(at(140 * time.Millisecond))
	if en.stalled || w.Recoveries() != 1 || !en.lastMove.Equal(at(140*time.Millisecond)) {
		t.Fatalf("progress did not recover the stall: stalled %v, recoveries %d", en.stalled, w.Recoveries())
	}
	// Still pending, no further progress: the window now runs from lastMove.
	w.scan(at(169 * time.Millisecond))
	if w.Stalls() != 1 {
		t.Fatal("stalled before a window elapsed since the last progress")
	}
	w.scan(at(171 * time.Millisecond))
	if w.Stalls() != 2 {
		t.Fatal("no second stall a window after the last progress")
	}
}
