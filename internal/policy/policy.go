// Package policy closes the loop between measurement and configuration —
// the Cohmeleon direction: learn the configuration from measured reward
// instead of hand-tuning it. The Controller subscribes to the telemetry
// sampler's windowed frames (internal/telem) and, on every frame, adapts the
// scheduler's two live knobs, quantum and frame-coalesce cap:
//
//   - An epsilon-greedy bandit chooses among discrete (quantum,
//     coalesce-words) arms. Reward is windowed service goodput (the sum of
//     per-tenant short-window output word rates). Estimates are EWMAs, so
//     the controller tracks workload drift without forgetting everything it
//     has learned.
//   - Hysteresis keeps one-tick blips from thrashing: an exploit switch
//     needs the challenger to beat the incumbent's estimate by a relative
//     margin on several consecutive decisions. Exploration and the initial
//     round-robin sweep are exempt — they are how estimates get built.
//
// Decisions apply through sched.Scheduler.Retune, which sets the knob pair
// scheduler-wide and defers a new quantum to each session's next quantum
// boundary — fairness invariants hold through every switch (see DESIGN.md).
// Each arm change lands in the event ring as a policy_switch event carrying
// before/after knobs and the observed reward, and the controller exports
// cohort_policy_* metrics plus the /policy document (current arm, reward
// estimates, switch history).
package policy

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"cohort"
	"cohort/internal/sched"
	"cohort/internal/telem"
)

// Arm is one discrete point in the bandit's action space: a quantum
// (blocks per scheduling decision) and a frame-coalescing cap (words).
type Arm struct {
	Quantum       int `json:"quantum"`
	CoalesceWords int `json:"coalesce_words"`
}

func (a Arm) String() string {
	return fmt.Sprintf("q=%d/c=%d", a.Quantum, a.CoalesceWords)
}

// Retuner is the slice of *sched.Scheduler the controller acts through.
type Retuner interface {
	// Retune sets the scheduler-wide knob pair.
	Retune(sched.Knobs)
}

// EventSink receives policy_switch events — satisfied by *telem.Log and by
// the scheduler's own sink plumbing.
type EventSink interface {
	Emit(typ, tenant string, session uint64, detail string)
}

// Config parameterizes a Controller. Sched and Frames are required.
type Config struct {
	Sched  Retuner
	Frames <-chan telem.WindowsDoc // Sampler.Subscribe output

	Arms []Arm // action space; DefaultArms() when empty

	// Epsilon is the exploration probability per decision (default 0.1).
	Epsilon float64
	// Settle is how many frames to discard after applying new knobs, while
	// the short window still mixes old- and new-knob samples (default 1).
	Settle int
	// Hysteresis is how many consecutive decisions a challenger arm must win
	// before an exploit switch fires (default 2) — the anti-thrash guard.
	Hysteresis int
	// Margin is the relative reward edge the challenger needs each of those
	// times (default 0.05: beat the incumbent's estimate by 5%).
	Margin float64

	Seed     int64            // exploration RNG seed (deterministic runs)
	Registry *cohort.Registry // optional: cohort_policy_* source
	Events   EventSink        // optional: policy_switch events
}

// DefaultArms is the stock action space: quanta spanning latency-biased to
// throughput-biased dispatch, crossed with a small and a large frame cap.
func DefaultArms() []Arm {
	var arms []Arm
	for _, q := range []int{8, 32, 128} {
		for _, c := range []int{1024, 65536} {
			arms = append(arms, Arm{Quantum: q, CoalesceWords: c})
		}
	}
	return arms
}

// armStat is one arm's learned state.
type armStat struct {
	plays uint64
	est   float64 // EWMA reward estimate
	last  float64 // most recent credited reward
}

// SwitchRecord is one entry in the controller's switch history ring.
type SwitchRecord struct {
	At      time.Time `json:"at"`
	FromArm int       `json:"from_arm"` // -1 for the initial apply
	ToArm   int       `json:"to_arm"`
	From    Arm       `json:"from"`
	To      Arm       `json:"to"`
	Reward  float64   `json:"reward"` // observed reward at switch time
	Reason  string    `json:"reason"` // sweep | explore | exploit
}

// ArmStatus is one arm's row in the /policy document.
type ArmStatus struct {
	Arm
	Plays      uint64  `json:"plays"`
	RewardEst  float64 `json:"reward_est"`
	LastReward float64 `json:"last_reward"`
	Current    bool    `json:"current,omitempty"`
}

// Doc is the /policy document: the controller's full observable state.
type Doc struct {
	Enabled      bool           `json:"enabled"`
	Epsilon      float64        `json:"epsilon"`
	Hysteresis   int            `json:"hysteresis"`
	Margin       float64        `json:"margin"`
	Settle       int            `json:"settle"`
	Frames       uint64         `json:"frames"`
	IdleFrames   uint64         `json:"idle_frames"`
	Decisions    uint64         `json:"decisions"`
	Switches     uint64         `json:"switches"`
	Explorations uint64         `json:"explorations"`
	CurrentArm   int            `json:"current_arm"`
	LastReward   float64        `json:"last_reward"`
	Arms         []ArmStatus    `json:"arms"`
	History      []SwitchRecord `json:"history"`
}

// Controller is the online policy loop. Create with New, feed it frames via
// Config.Frames (Start runs the loop; tests call Observe directly).
type Controller struct {
	cfg  Config
	stop chan struct{}
	done chan struct{}
	rng  *rand.Rand

	mu           sync.Mutex
	arms         []armStat
	cur          int // current arm index; -1 before the first decision
	settleLeft   int
	pendingBest  int // exploit challenger being debounced (-1 none)
	pendingWins  int
	lastReward   float64
	frames       uint64
	idleFrames   uint64
	decisions    uint64
	switches     uint64
	explorations uint64
	history      []SwitchRecord
}

const historyCap = 64

// alpha is the reward-estimate EWMA weight for new observations.
const alpha = 0.3

// New builds a Controller. Knobs are not touched until the first frame
// arrives (or Observe is called).
func New(cfg Config) *Controller {
	if cfg.Sched == nil {
		panic("policy: Config.Sched is required")
	}
	if len(cfg.Arms) == 0 {
		cfg.Arms = DefaultArms()
	}
	if cfg.Epsilon <= 0 {
		cfg.Epsilon = 0.1
	}
	if cfg.Settle <= 0 {
		cfg.Settle = 1
	}
	if cfg.Hysteresis <= 0 {
		cfg.Hysteresis = 2
	}
	if cfg.Margin <= 0 {
		cfg.Margin = 0.05
	}
	c := &Controller{
		cfg:         cfg,
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		arms:        make([]armStat, len(cfg.Arms)),
		cur:         -1,
		pendingBest: -1,
	}
	if reg := cfg.Registry; reg != nil {
		reg.Register("policy", func() []cohort.Metric { return c.metrics() })
	}
	return c
}

// Start launches the control loop over Config.Frames.
func (c *Controller) Start() {
	go func() {
		defer close(c.done)
		for {
			select {
			case <-c.stop:
				return
			case doc, ok := <-c.cfg.Frames:
				if !ok {
					return
				}
				c.Observe(doc)
			}
		}
	}()
}

// Stop halts the loop and unregisters the metrics source. Idempotent-safe
// only for a single call; callers own that discipline (cohortd calls once).
func (c *Controller) Stop() {
	close(c.stop)
	<-c.done
	if reg := c.cfg.Registry; reg != nil {
		reg.Unregister("policy")
	}
}

// Observe runs one control step on a windowed frame: credit the current
// arm's reward estimate and pick the next arm. Exported so tests and the A/B
// harness can drive the controller with synthetic frames, no sampler
// required.
func (c *Controller) Observe(doc telem.WindowsDoc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frames++

	reward, busy := observation(doc)
	if !busy {
		// Nothing served this window — either genuine idleness or a
		// counter-reset tick that clamped every rate to zero (telem's window
		// subtraction clamps at zero on resets). Neither says anything about
		// arm quality: skip crediting AND deciding, so a mid-window restart
		// can never fake a reward collapse into a spurious switch.
		c.idleFrames++
		return
	}
	c.lastReward = reward

	if c.settleLeft > 0 {
		// The short window still mixes pre- and post-switch samples; crediting
		// now would smear the old arm's behaviour onto the new arm's estimate.
		c.settleLeft--
		return
	}

	if c.cur >= 0 {
		st := &c.arms[c.cur]
		if st.plays == 0 {
			st.est = reward // first credit seeds the estimate directly
		} else {
			st.est += alpha * (reward - st.est)
		}
		st.plays++
		st.last = reward
	}

	c.decisions++

	next, reason := c.pickLocked()
	if next != c.cur {
		c.switchLocked(next, reward, reason, doc.At)
	}
}

// observation folds a frame into (reward, busy): reward is service goodput —
// the sum of per-tenant short-window output word rates — and busy reports
// whether the window saw any traffic at all.
func observation(doc telem.WindowsDoc) (reward float64, busy bool) {
	for _, t := range doc.Tenants {
		reward += t.Short.WordsOutPerSec
		if t.Short.BlocksPerSec > 0 || t.Short.WordsOutPerSec > 0 {
			busy = true
		}
	}
	return reward, busy
}

// pickLocked chooses the next arm: finish the initial round-robin sweep of
// unplayed arms, then explore with probability epsilon, else exploit the
// best estimate — but only through the hysteresis debounce.
func (c *Controller) pickLocked() (int, string) {
	for i := range c.arms {
		if c.arms[i].plays == 0 {
			return i, "sweep"
		}
	}
	if len(c.arms) > 1 && c.rng.Float64() < c.cfg.Epsilon {
		// Uniform over the other arms, so exploration always moves.
		n := c.rng.Intn(len(c.arms) - 1)
		if n >= c.cur {
			n++
		}
		c.explorations++
		return n, "explore"
	}
	best := 0
	for i := range c.arms {
		if c.arms[i].est > c.arms[best].est {
			best = i
		}
	}
	if best == c.cur {
		c.pendingBest, c.pendingWins = -1, 0
		return c.cur, ""
	}
	if c.arms[best].est <= c.arms[c.cur].est*(1+c.cfg.Margin) {
		// Not a decisive win: inside the margin is noise, stay put.
		c.pendingBest, c.pendingWins = -1, 0
		return c.cur, ""
	}
	if best != c.pendingBest {
		c.pendingBest, c.pendingWins = best, 1
	} else {
		c.pendingWins++
	}
	if c.pendingWins < c.cfg.Hysteresis {
		return c.cur, "" // challenger must keep winning — no one-tick blips
	}
	c.pendingBest, c.pendingWins = -1, 0
	return best, "exploit"
}

// switchLocked applies arm `next` through the scheduler and records the
// decision everywhere it is observable: event ring, metrics, history.
func (c *Controller) switchLocked(next int, reward float64, reason string, at time.Time) {
	fromIdx := c.cur
	var from Arm
	if fromIdx >= 0 {
		from = c.cfg.Arms[fromIdx]
	}
	to := c.cfg.Arms[next]
	c.cur = next
	c.settleLeft = c.cfg.Settle
	c.pendingBest, c.pendingWins = -1, 0
	c.cfg.Sched.Retune(sched.Knobs{Quantum: to.Quantum, CoalesceWords: to.CoalesceWords})
	c.switches++
	rec := SwitchRecord{
		At: at, FromArm: fromIdx, ToArm: next,
		From: from, To: to, Reward: reward, Reason: reason,
	}
	if len(c.history) >= historyCap {
		copy(c.history, c.history[1:])
		c.history = c.history[:historyCap-1]
	}
	c.history = append(c.history, rec)
	if c.cfg.Events != nil {
		c.cfg.Events.Emit(telem.EventPolicySwitch, "", 0,
			fmt.Sprintf("%s: arm %d (%s) -> arm %d (%s), reward %.0f words/s",
				reason, fromIdx, from, next, to, reward))
	}
}

// Doc snapshots the controller for /policy and the A/B report.
func (c *Controller) Doc() Doc {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := Doc{
		Enabled:      true,
		Epsilon:      c.cfg.Epsilon,
		Hysteresis:   c.cfg.Hysteresis,
		Margin:       c.cfg.Margin,
		Settle:       c.cfg.Settle,
		Frames:       c.frames,
		IdleFrames:   c.idleFrames,
		Decisions:    c.decisions,
		Switches:     c.switches,
		Explorations: c.explorations,
		CurrentArm:   c.cur,
		LastReward:   c.lastReward,
		Arms:         make([]ArmStatus, len(c.cfg.Arms)),
		History:      append([]SwitchRecord(nil), c.history...),
	}
	for i, a := range c.cfg.Arms {
		d.Arms[i] = ArmStatus{
			Arm: a, Plays: c.arms[i].plays,
			RewardEst: c.arms[i].est, LastReward: c.arms[i].last,
			Current: i == c.cur,
		}
	}
	return d
}

// metrics is the "policy" registry source → cohort_policy_* families.
func (c *Controller) metrics() []cohort.Metric {
	c.mu.Lock()
	defer c.mu.Unlock()
	var q, cw int
	if c.cur >= 0 {
		q, cw = c.cfg.Arms[c.cur].Quantum, c.cfg.Arms[c.cur].CoalesceWords
	}
	var est float64
	if c.cur >= 0 {
		est = c.arms[c.cur].est
	}
	return []cohort.Metric{
		{Name: "policy_frames", Value: c.frames},
		{Name: "policy_idle_frames", Value: c.idleFrames},
		{Name: "policy_decisions", Value: c.decisions},
		{Name: "policy_switches", Value: c.switches},
		{Name: "policy_explorations", Value: c.explorations},
		{Name: "policy_arm", Value: uint64(c.cur + 1)}, // 0 = none yet
		{Name: "policy_quantum", Value: uint64(q)},
		{Name: "policy_coalesce_words", Value: uint64(cw)},
		cohort.FloatMetric("policy_reward", c.lastReward),
		cohort.FloatMetric("policy_reward_est", est),
	}
}

// Spec is the -policy flag's JSON shape: an arm grid plus tuning overrides.
// Either inline JSON or an @file path parses.
type Spec struct {
	Quantum       []int   `json:"quantum"`
	CoalesceWords []int   `json:"coalesce_words"`
	Epsilon       float64 `json:"epsilon"`
	Settle        int     `json:"settle"`
	Hysteresis    int     `json:"hysteresis"`
	Margin        float64 `json:"margin"`
}

// ParseSpec parses the -policy flag value: inline JSON, or a file path when
// the value starts with '@'. Empty input returns a zero Spec (defaults).
func ParseSpec(v string) (Spec, error) {
	var sp Spec
	v = strings.TrimSpace(v)
	if v == "" {
		return sp, nil
	}
	data := []byte(v)
	if strings.HasPrefix(v, "@") {
		b, err := os.ReadFile(v[1:])
		if err != nil {
			return sp, fmt.Errorf("policy spec: %w", err)
		}
		data = b
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return sp, fmt.Errorf("policy spec: %w", err)
	}
	return sp, nil
}

// Apply folds a parsed Spec into a Config (zero fields keep defaults).
func (sp Spec) Apply(cfg Config) Config {
	if len(sp.Quantum) > 0 || len(sp.CoalesceWords) > 0 {
		qs, cs := sp.Quantum, sp.CoalesceWords
		if len(qs) == 0 {
			qs = []int{0}
		}
		if len(cs) == 0 {
			cs = []int{0}
		}
		var arms []Arm
		for _, q := range qs {
			for _, cw := range cs {
				arms = append(arms, Arm{Quantum: q, CoalesceWords: cw})
			}
		}
		cfg.Arms = arms
	}
	if sp.Epsilon > 0 {
		cfg.Epsilon = sp.Epsilon
	}
	if sp.Settle > 0 {
		cfg.Settle = sp.Settle
	}
	if sp.Hysteresis > 0 {
		cfg.Hysteresis = sp.Hysteresis
	}
	if sp.Margin > 0 {
		cfg.Margin = sp.Margin
	}
	return cfg
}
