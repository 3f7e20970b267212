package policy

import (
	"strings"
	"testing"
	"time"

	"cohort/internal/sched"
	"cohort/internal/telem"
)

// fakeRetuner records every Retune call; the last one is the knob pair in
// effect.
type fakeRetuner struct {
	calls []sched.Knobs
	sched.Knobs
}

func (f *fakeRetuner) Retune(k sched.Knobs) {
	f.calls = append(f.calls, k)
	f.Knobs = k
}

var pt0 = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

// busyFrame builds a one-tenant frame carrying the given goodput — the
// signal the controller consumes.
func busyFrame(at time.Time, wordsOut float64) telem.WindowsDoc {
	return telem.WindowsDoc{
		At: at,
		Tenants: []telem.TenantWindows{{
			Tenant: "alice",
			Short:  telem.WindowView{BlocksPerSec: wordsOut / 8, WordsOutPerSec: wordsOut},
		}},
	}
}

// testArms is a three-point action space keyed by quantum.
var testArms = []Arm{
	{Quantum: 8, CoalesceWords: 65536},
	{Quantum: 64, CoalesceWords: 65536},
	{Quantum: 256, CoalesceWords: 65536},
}

// newTestController builds a controller with exploration effectively off
// (Epsilon must be > 0 to not be defaulted) so runs are deterministic.
func newTestController(f *fakeRetuner, hysteresis int) *Controller {
	return New(Config{
		Sched:      f,
		Arms:       testArms,
		Epsilon:    1e-12,
		Settle:     1,
		Hysteresis: hysteresis,
		Seed:       1,
	})
}

// drive feeds n busy frames, deriving each frame's reward from the knobs the
// controller has actually applied — a closed loop, like the real sampler.
func drive(c *Controller, f *fakeRetuner, at *time.Time, n int, rewardOf func(quantum int) float64) {
	for i := 0; i < n; i++ {
		c.Observe(busyFrame(*at, rewardOf(f.Quantum)))
		*at = at.Add(time.Second)
	}
}

func TestSweepThenConvergeOnBestArm(t *testing.T) {
	f := &fakeRetuner{}
	c := newTestController(f, 2)
	rewards := map[int]float64{0: 50, 8: 100, 64: 200, 256: 300}
	at := pt0
	drive(c, f, &at, 20, func(q int) float64 { return rewards[q] })

	doc := c.Doc()
	if doc.CurrentArm != 2 {
		t.Fatalf("converged on arm %d, want 2 (q=256, best reward)", doc.CurrentArm)
	}
	// The sweep visits each arm exactly once; the best arm is the sweep's
	// last stop, so no exploit switch is ever needed.
	if doc.Switches != 3 {
		t.Fatalf("switches = %d, want 3 (one per sweep arm)", doc.Switches)
	}
	for i, a := range doc.Arms {
		if a.Plays == 0 {
			t.Errorf("arm %d never played during sweep", i)
		}
	}
	if est := doc.Arms[2].RewardEst; est != 300 {
		t.Errorf("arm 2 reward estimate = %v, want 300", est)
	}
	if f.Knobs != (sched.Knobs{Quantum: 256, CoalesceWords: 65536}) {
		t.Errorf("applied knobs %+v, want q=256 c=65536", f.Knobs)
	}
	if len(doc.History) != 3 || doc.History[0].FromArm != -1 || doc.History[0].Reason != "sweep" {
		t.Errorf("history = %+v, want 3 sweep records starting from arm -1", doc.History)
	}
}

func TestHysteresisSuppressesOneFrameBlip(t *testing.T) {
	f := &fakeRetuner{}
	c := newTestController(f, 2)
	// Converge on arm 0 (q=8 pays best here).
	rewards := map[int]float64{0: 100, 8: 100, 64: 90, 256: 10}
	at := pt0
	drive(c, f, &at, 20, func(q int) float64 { return rewards[q] })
	// Sweep (3 switches) ends on the worst arm, then one exploit switch
	// (after the hysteresis streak) lands back on arm 0.
	if doc := c.Doc(); doc.CurrentArm != 0 || doc.Switches != 4 {
		t.Fatalf("setup: arm %d after %d switches, want arm 0 after 4", doc.CurrentArm, doc.Switches)
	}

	// One-frame reward collapse on the incumbent: the challenger now beats
	// the dented estimate, but hysteresis demands consecutive wins.
	c.Observe(busyFrame(at, 10))
	at = at.Add(time.Second)
	if doc := c.Doc(); doc.Switches != 4 {
		t.Fatalf("blip caused a switch: %d switches, want still 4", doc.Switches)
	}

	// Strong recovery cancels the challenger's streak; the controller must
	// hold arm 0 through it and beyond.
	drive(c, f, &at, 5, func(q int) float64 { return 300 })
	if doc := c.Doc(); doc.CurrentArm != 0 || doc.Switches != 4 {
		t.Fatalf("after recovery: arm %d, %d switches — blip thrashed the policy", doc.CurrentArm, doc.Switches)
	}
}

func TestIdleAndCounterResetFramesDecideNothing(t *testing.T) {
	f := &fakeRetuner{}
	c := newTestController(f, 2)
	rewards := map[int]float64{0: 100, 8: 300, 64: 200, 256: 100}
	at := pt0
	drive(c, f, &at, 20, func(q int) float64 { return rewards[q] })
	before := c.Doc()
	if before.CurrentArm != 0 {
		t.Fatalf("setup: converged on arm %d, want 0", before.CurrentArm)
	}
	calls := len(f.calls)

	// A counter reset clamps every windowed rate to zero (see telem's
	// TestSubscribeCounterResetFrameIsIdle) — the frame the controller sees
	// is indistinguishable from idleness, and must be treated as such:
	// no reward credit, no decision, no switch, no knob writes.
	for i := 0; i < 5; i++ {
		c.Observe(telem.WindowsDoc{At: at, Tenants: []telem.TenantWindows{{Tenant: "alice"}}})
		at = at.Add(time.Second)
	}
	after := c.Doc()
	if after.IdleFrames != before.IdleFrames+5 {
		t.Errorf("idle_frames = %d, want %d", after.IdleFrames, before.IdleFrames+5)
	}
	if after.Decisions != before.Decisions || after.Switches != before.Switches {
		t.Errorf("idle frames decided: decisions %d->%d switches %d->%d",
			before.Decisions, after.Decisions, before.Switches, after.Switches)
	}
	if after.Arms[0].RewardEst != before.Arms[0].RewardEst {
		t.Errorf("idle frame credited reward: est %v -> %v",
			before.Arms[0].RewardEst, after.Arms[0].RewardEst)
	}
	if len(f.calls) != calls {
		t.Errorf("idle frames wrote knobs: %d Retune calls, want %d", len(f.calls), calls)
	}
}

func TestSwitchEventsCarryBeforeAfterKnobs(t *testing.T) {
	f := &fakeRetuner{}
	events := telem.NewLog(16, nil)
	c := New(Config{
		Sched:   f,
		Arms:    testArms,
		Epsilon: 1e-12,
		Settle:  1,
		Seed:    1,
		Events:  events,
	})
	at := pt0
	drive(c, f, &at, 10, func(q int) float64 { return 100 })

	evs, _, _ := events.Since(0, 16)
	var switches []telem.Event
	for _, e := range evs {
		if e.Type == telem.EventPolicySwitch {
			switches = append(switches, e)
		}
	}
	if len(switches) != 3 {
		t.Fatalf("policy_switch events = %d, want 3 (sweep)", len(switches))
	}
	first := switches[0].Detail
	for _, want := range []string{"sweep", "arm -1", "arm 0", "q=8/c=65536"} {
		if !strings.Contains(first, want) {
			t.Errorf("first switch detail %q missing %q", first, want)
		}
	}
}

func TestParseSpecAndApply(t *testing.T) {
	sp, err := ParseSpec(`{"quantum":[16,128],"coalesce_words":[2048,32768],"epsilon":0.2,"hysteresis":4}`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sp.Apply(Config{})
	if len(cfg.Arms) != 4 {
		t.Fatalf("arm grid = %d arms, want 4 (2x2 cross product)", len(cfg.Arms))
	}
	if cfg.Arms[0] != (Arm{Quantum: 16, CoalesceWords: 2048}) ||
		cfg.Arms[3] != (Arm{Quantum: 128, CoalesceWords: 32768}) {
		t.Fatalf("arm grid = %+v", cfg.Arms)
	}
	if cfg.Epsilon != 0.2 || cfg.Hysteresis != 4 {
		t.Fatalf("overrides not applied: %+v", cfg)
	}
	if _, err := ParseSpec(`{nope`); err == nil {
		t.Fatal("bad JSON accepted")
	}
	if sp, err := ParseSpec(""); err != nil || len(sp.Quantum) != 0 {
		t.Fatalf("empty spec: %+v, %v", sp, err)
	}
}
