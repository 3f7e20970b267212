package sched

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cohort"
)

// tallyAccel burns a little CPU per block (so a quantum has nonzero length)
// and counts its own completed blocks in an atomic. Every `every` own blocks
// it snapshots the *other* tenant's counter into snaps — taken inside the
// worker, at an exact point of this tenant's progress, so the measurement is
// immune to sampling skew. It produces no output words, which removes output
// backpressure (and drainer goroutines) from the fairness experiments: on a
// single-CPU machine any concurrent helper goroutine rate-limits the worker
// and the test would measure Go's goroutine scheduler, not ours.
//
// A non-nil gate holds every Process call until the test closes it. Gating
// the first tenant registered parks the single worker inside that tenant's
// first block, so the whole cohort is admitted before any service is charged:
// without it the first tenant runs alone for as long as the test goroutine
// takes to register the second one (milliseconds when the test goroutine is
// descheduled — thousands of blocks).
type tallyAccel struct {
	mine  *atomic.Uint64
	other *atomic.Uint64
	every uint64
	snaps chan uint64
	gate  chan struct{}
	sink  cohort.Word
}

func (a *tallyAccel) Name() string           { return "tally" }
func (a *tallyAccel) InWords() int           { return 1 }
func (a *tallyAccel) OutWords() int          { return 0 }
func (a *tallyAccel) Configure([]byte) error { return nil }
func (a *tallyAccel) Process(in []cohort.Word) ([]cohort.Word, error) {
	x := in[0] + 1
	for i := 0; i < 800; i++ {
		x = x*2654435761 + 1
	}
	a.sink = x
	a.tick()
	return nil, nil
}

// tick waits on the gate, counts one completed block and takes the snapshot
// due at that count.
func (a *tallyAccel) tick() {
	if a.gate != nil {
		<-a.gate
	}
	n := a.mine.Add(1)
	if a.every > 0 && n%a.every == 0 {
		select {
		case a.snaps <- a.other.Load():
		default:
		}
	}
}

// backlog returns a fifo of capacity cap pre-filled with n words — a tenant
// whose entire workload is queued before the scheduler ever sees it.
func backlog(t *testing.T, cap, n int) *cohort.Fifo[cohort.Word] {
	t.Helper()
	q, err := cohort.NewFifo[cohort.Word](cap)
	if err != nil {
		t.Fatal(err)
	}
	if q.TryPushSlice(make([]cohort.Word, n)) != n {
		t.Fatalf("backlog: could not pre-fill %d words into cap-%d fifo", n, cap)
	}
	return q
}

// nextSnap returns the next in-worker snapshot, failing the test if the
// snapshotting tenant stalls.
func nextSnap(t *testing.T, snaps <-chan uint64) uint64 {
	t.Helper()
	select {
	case v := <-snaps:
		return v
	case <-time.After(10 * time.Second):
		t.Fatal("the snapshotting tenant stalled")
		return 0
	}
}

// checkAliceBobRatio reads alice's in-worker snapshots of bob's block count —
// one per `every` of her own blocks — and asserts the 2:1 weights on the
// delta between her first and eighth snapshot: 7×every alice blocks against
// 3.5×every ± 10% of bob's, both tenants backlogged throughout. A delta is
// immune to whatever either tenant was served before the window opened.
func checkAliceBobRatio(t *testing.T, snaps <-chan uint64, every int) {
	t.Helper()
	first := nextSnap(t, snaps)
	last := first
	for i := 0; i < 7; i++ {
		last = nextSnap(t, snaps)
	}
	window := 7 * every
	ratio := float64(window) / float64(last-first)
	t.Logf("alice %d→%d blocks: bob %d→%d, ratio %.3f (weights 2:1)", every, 8*every, first, last, ratio)
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("block ratio alice:bob = %d:%d = %.3f, want 2.0 ± 10%%", window, last-first, ratio)
	}
}

// TestWeightedFairness is the acceptance-criteria run: two backlogged tenants
// with weights 2:1 sharing ONE engine worker complete blocks in a 2:1 ratio
// within ±10%. Both tenants' entire workloads are pre-filled into
// caller-supplied queues before either registers, bob's gate holds the worker
// until both are admitted, and the ratio is read from alice's own snapshots
// (checkAliceBobRatio).
func TestWeightedFairness(t *testing.T) {
	var aCnt, bCnt atomic.Uint64
	snaps := make(chan uint64, 16)
	gate := make(chan struct{})
	accA := &tallyAccel{mine: &aCnt, other: &bCnt, every: 500, snaps: snaps}
	accB := &tallyAccel{mine: &bCnt, gate: gate}
	inA, inB := backlog(t, 8192, 4800), backlog(t, 8192, 8000)

	s := New(Config{Engines: 1, Quantum: 8, QueueCap: 64})
	defer s.Close()
	b, err := s.Register(SessionConfig{Tenant: "bob", Accel: accB, Weight: 1, In: inB})
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Register(SessionConfig{Tenant: "alice", Accel: accA, Weight: 2, In: inA})
	if err != nil {
		t.Fatal(err)
	}
	close(gate)

	checkAliceBobRatio(t, snaps, 500)
	if sw := a.Stats().Switches + b.Stats().Switches; sw < 2 {
		t.Errorf("expected the single worker to swap between sessions, switches = %d", sw)
	}
}

// TestNoStarvation: a heavily weighted, deeply backlogged tenant cannot
// starve a lightweight one. The heavy tenant's accelerator snapshots the
// light tenant's block count every 1500 of its own blocks; each 1500-block
// round of heavy service must show fresh progress for the light tenant.
// The light tenant is gated until both are admitted, so it cannot finish its
// backlog before the heavy one has even registered.
func TestNoStarvation(t *testing.T) {
	var heavyCnt, lightCnt atomic.Uint64
	snaps := make(chan uint64, 16)
	gate := make(chan struct{})
	accHeavy := &tallyAccel{mine: &heavyCnt, other: &lightCnt, every: 1500, snaps: snaps}
	accLight := &tallyAccel{mine: &lightCnt, gate: gate}
	inLight, inHeavy := backlog(t, 4096, 4000), backlog(t, 32768, 20000)

	s := New(Config{Engines: 1, Quantum: 16, QueueCap: 64})
	defer s.Close()
	if _, err := s.Register(SessionConfig{Tenant: "light", Accel: accLight, Weight: 1, In: inLight}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register(SessionConfig{Tenant: "heavy", Accel: accHeavy, Weight: 10, In: inHeavy}); err != nil {
		t.Fatal(err)
	}
	close(gate)

	last := uint64(0)
	for round := 1; round <= 8; round++ {
		cur := nextSnap(t, snaps)
		if cur <= last {
			t.Fatalf("light tenant starved: heavy round %d ended with light at %d blocks (was %d)",
				round, cur, last)
		}
		last = cur
	}
	t.Logf("after 8×1500 heavy blocks (weight 10): light tenant (weight 1) at %d blocks", last)
}

// TestSessionChurnNoLeaks cycles concurrent register/finish/kill and checks
// that goroutine count and metric registry population return to baseline —
// the session lifecycle leaks nothing.
func TestSessionChurnNoLeaks(t *testing.T) {
	reg := cohort.NewRegistry()
	baselineGoroutines := runtime.NumGoroutine()
	s := New(Config{Engines: 2, Quantum: 4, QueueCap: 64, Registry: reg})

	const cycles = 25
	const tenants = 4
	for c := 0; c < cycles; c++ {
		var wg sync.WaitGroup
		for i := 0; i < tenants; i++ {
			wg.Add(1)
			go func(c, i int) {
				defer wg.Done()
				ss, err := s.Register(SessionConfig{
					Tenant: fmt.Sprintf("t%d", i), Accel: cohort.NewNull(), Weight: 1 + i,
				})
				if err != nil {
					t.Error(err)
					return
				}
				if (c+i)%3 == 0 {
					// A third of the sessions die abruptly, mid-stream.
					ss.In().PushSlice(make([]cohort.Word, 7))
					ss.Kill()
					<-ss.Done()
					if !errors.Is(ss.Err(), ErrKilled) {
						t.Errorf("killed session Err = %v, want ErrKilled", ss.Err())
					}
					return
				}
				const words = 48
				ss.In().PushSlice(make([]cohort.Word, words))
				ss.CloseSend()
				<-ss.Done()
				if err := ss.Err(); err != nil {
					t.Errorf("clean session Err = %v", err)
				}
				// Results remain readable after retirement; the stream ends.
				got, buf := 0, make([]cohort.Word, 16)
				for {
					n := ss.Out().TryPopInto(buf)
					got += n
					if n == 0 {
						if ss.Out().Drained() {
							break
						}
						runtime.Gosched()
					}
				}
				if got != words {
					t.Errorf("session returned %d words, want %d", got, words)
				}
			}(c, i)
		}
		wg.Wait()
	}

	if n := len(s.Sessions()); n != 0 {
		t.Errorf("%d sessions still live after churn", n)
	}
	// Sessions own no source: the registry holds the scheduler's own
	// "sched" source plus one persistent "tenant/<tenant>" record per tenant
	// (records outlive session churn by design and unregister only at Close).
	if n := reg.Len(); n != 1+tenants {
		t.Errorf("registry holds %d sources after churn, want %d", n, 1+tenants)
	}
	s.Close()
	if n := reg.Len(); n != 0 {
		t.Errorf("registry holds %d sources after Close, want 0", n)
	}
	// Workers are joined by Close; give the runtime a moment to reap stacks.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baselineGoroutines+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baselineGoroutines, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAdmissionControl: MaxSessions rejects the overflow registration and
// admits again after a retirement.
func TestAdmissionControl(t *testing.T) {
	s := New(Config{Engines: 1, MaxSessions: 2, QueueCap: 64})
	defer s.Close()
	a, err := s.Register(SessionConfig{Tenant: "a", Accel: cohort.NewNull()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register(SessionConfig{Tenant: "b", Accel: cohort.NewNull()}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register(SessionConfig{Tenant: "c", Accel: cohort.NewNull()}); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("overflow Register err = %v, want ErrTooManySessions", err)
	}
	a.CloseSend()
	<-a.Done()
	if _, err := s.Register(SessionConfig{Tenant: "c", Accel: cohort.NewNull()}); err != nil {
		t.Fatalf("Register after retirement: %v", err)
	}
}

// TestQuotaExceeded: a session with a block quota is served exactly that many
// blocks, then retired with ErrQuotaExceeded and a closed output stream.
func TestQuotaExceeded(t *testing.T) {
	s := New(Config{Engines: 1, Quantum: 2, QueueCap: 256})
	defer s.Close()
	ss, err := s.Register(SessionConfig{Tenant: "capped", Accel: cohort.NewNull(), Quota: 3})
	if err != nil {
		t.Fatal(err)
	}
	ss.In().PushSlice(make([]cohort.Word, 10))
	select {
	case <-ss.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("quota-capped session never retired")
	}
	if !errors.Is(ss.Err(), ErrQuotaExceeded) {
		t.Fatalf("Err = %v, want ErrQuotaExceeded", ss.Err())
	}
	if st := ss.Stats(); st.Blocks != 3 {
		t.Fatalf("served %d blocks, want exactly the quota of 3", st.Blocks)
	}
	if !ss.Out().Closed() {
		t.Fatal("output stream not closed after quota retirement")
	}
}

// TestEndOfStreamDrain: CloseSend finishes complete blocks, drops the partial
// tail, closes the output and retires — the block math for a non-1:1
// accelerator (SHA-256, 8 words in, 4 out).
func TestEndOfStreamDrain(t *testing.T) {
	reg := cohort.NewRegistry()
	s := New(Config{Engines: 1, Quantum: 4, QueueCap: 256, Registry: reg})
	defer s.Close()
	ss, err := s.Register(SessionConfig{Tenant: "sha", Accel: cohort.NewSHA256(), Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	ss.In().PushSlice(make([]cohort.Word, 2*8+3)) // two blocks and a 3-word tail
	ss.CloseSend()
	select {
	case <-ss.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("session never retired after CloseSend")
	}
	if err := ss.Err(); err != nil {
		t.Fatalf("clean end of stream Err = %v", err)
	}
	st := ss.Stats()
	if st.Blocks != 2 || st.DroppedWords != 3 || st.WordsOut != 8 {
		t.Fatalf("stats = %+v, want 2 blocks, 3 dropped, 8 words out", st)
	}
	if !ss.Out().Drained() {
		got := make([]cohort.Word, 8)
		if n := ss.Out().TryPopInto(got); n != 8 {
			t.Fatalf("output holds %d words, want 8", n)
		}
	}
}

// TestSessionsSnapshot: the /sessions document reflects live sessions with
// tenant, weight and queue occupancy, sorted by id.
func TestSessionsSnapshot(t *testing.T) {
	s := New(Config{Engines: 1, QueueCap: 64})
	defer s.Close()
	a, _ := s.Register(SessionConfig{Tenant: "alice", Accel: cohort.NewNull(), Weight: 2})
	b, _ := s.Register(SessionConfig{Tenant: "bob", Accel: cohort.NewSHA256(), Weight: 1, Quota: 9})
	infos := s.Sessions()
	if len(infos) != 2 {
		t.Fatalf("Sessions() = %d rows, want 2", len(infos))
	}
	if infos[0].ID != a.ID() || infos[1].ID != b.ID() {
		t.Fatalf("rows out of id order: %+v", infos)
	}
	if infos[0].Tenant != "alice" || infos[0].Weight != 2 || infos[0].Accel != "axis-null" {
		t.Errorf("alice row = %+v", infos[0])
	}
	if infos[1].Quota != 9 || infos[1].Accel != "sha256" {
		t.Errorf("bob row = %+v", infos[1])
	}
}

// TestRegisterValidation: bad configurations are rejected before any
// resources are committed.
func TestRegisterValidation(t *testing.T) {
	s := New(Config{Engines: 1, QueueCap: 64})
	if _, err := s.Register(SessionConfig{Tenant: "x"}); err == nil {
		t.Error("nil accelerator accepted")
	}
	if _, err := s.Register(SessionConfig{Tenant: "x", Accel: cohort.NewNull(), Weight: -1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := s.Register(SessionConfig{Tenant: "x", Accel: cohort.NewSHA256(), QueueCap: 4}); err == nil {
		t.Error("queue capacity below block size accepted")
	}
	s.Close()
	if _, err := s.Register(SessionConfig{Tenant: "x", Accel: cohort.NewNull()}); !errors.Is(err, ErrClosed) {
		t.Errorf("Register after Close err = %v, want ErrClosed", err)
	}
}

// fanAccel turns each input word w into n output words w, w+1, ... while
// declaring OutWords = declared: with n == declared it is a well-behaved 1:n
// accelerator whose results straddle the output ring's wrap seam (n = 3
// divides no power of two); with n > declared it breaks its own contract.
type fanAccel struct {
	declared int
	out      []cohort.Word
}

func (a *fanAccel) Name() string           { return "fan" }
func (a *fanAccel) InWords() int           { return 1 }
func (a *fanAccel) OutWords() int          { return a.declared }
func (a *fanAccel) Configure([]byte) error { return nil }
func (a *fanAccel) Process(in []cohort.Word) ([]cohort.Word, error) {
	for i := range a.out {
		a.out[i] = in[0] + cohort.Word(i)
	}
	return a.out, nil
}

// TestQuantumPublishesIntoRing: serveQuantum writes results straight into the
// output ring and publishes once per quantum. Over a 16-word ring and 3-word
// results, quanta straddle the wrap seam in every phase; an accelerator that
// returns more than it declared outruns the room the clamp reserved and must
// still deliver every word in order (the slow path), not corrupt the ring.
func TestQuantumPublishesIntoRing(t *testing.T) {
	for _, tc := range []struct {
		name        string
		declared, n int
	}{{"straddles-seam", 3, 3}, {"over-declared", 2, 3}} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := cohort.NewFifo[cohort.Word](16)
			if err != nil {
				t.Fatal(err)
			}
			s := New(Config{Engines: 1, Quantum: 4, QueueCap: 64})
			defer s.Close()
			ss, err := s.Register(SessionConfig{
				Tenant: "fan", Out: out,
				Accel: &fanAccel{declared: tc.declared, out: make([]cohort.Word, tc.n)},
			})
			if err != nil {
				t.Fatal(err)
			}
			const blocks = 500
			go func() {
				for i := 0; i < blocks; i++ {
					ss.In().Push(cohort.Word(1000 * i))
				}
				ss.CloseSend()
			}()
			got := drain(t, ss)
			if len(got) != blocks*tc.n {
				t.Fatalf("received %d words, want %d", len(got), blocks*tc.n)
			}
			for i, w := range got {
				if want := cohort.Word(1000*(i/tc.n) + i%tc.n); w != want {
					t.Fatalf("word %d = %d, want %d", i, w, want)
				}
			}
			if st := ss.Stats(); st.Blocks != blocks || st.WordsOut != uint64(blocks*tc.n) {
				t.Fatalf("stats: %d blocks, %d words out; want %d and %d", st.Blocks, st.WordsOut, blocks, blocks*tc.n)
			}
		})
	}
}

// decisionProbe is a 1:0 accelerator that counts the blocks each scheduling
// decision hands it: a session's quanta counter advances once a decision
// finishes, so while decision k runs it reads k.
type decisionProbe struct {
	ss     atomic.Pointer[Session]
	blocks []int // blocks served by decision k, at index k
}

func (p *decisionProbe) Name() string           { return "probe" }
func (p *decisionProbe) InWords() int           { return 1 }
func (p *decisionProbe) OutWords() int          { return 0 }
func (p *decisionProbe) Configure([]byte) error { return nil }
func (p *decisionProbe) Process([]cohort.Word) ([]cohort.Word, error) {
	k := int(p.ss.Load().quanta.Load())
	for len(p.blocks) <= k {
		p.blocks = append(p.blocks, 0)
	}
	p.blocks[k]++
	return nil, nil
}

// TestConfigQuantumBoundsEachDecision: Config.Quantum is the most blocks one
// scheduling decision serves, and a backlog is served in full quanta, so a
// 64-block stream published at once drains in exactly 64/Quantum decisions
// of Quantum blocks each.
func TestConfigQuantumBoundsEachDecision(t *testing.T) {
	for _, tc := range []struct{ quantum, quanta int }{{8, 8}, {32, 2}} {
		t.Run(fmt.Sprintf("quantum=%d", tc.quantum), func(t *testing.T) {
			s := New(Config{Engines: 1, Quantum: tc.quantum, QueueCap: 128})
			defer s.Close()
			probe := &decisionProbe{}
			ss, err := s.Register(SessionConfig{Tenant: "alice", Accel: probe, Weight: 1})
			if err != nil {
				t.Fatal(err)
			}
			probe.ss.Store(ss)
			if n := ss.In().TryPushSlice(make([]cohort.Word, 64)); n != 64 {
				t.Fatalf("pushed %d of 64 words", n)
			}
			ss.CloseSend()
			select {
			case <-ss.Done():
			case <-time.After(10 * time.Second):
				t.Fatalf("session never retired: %d/64 blocks served", ss.Stats().Blocks)
			}
			if q := ss.Stats().Quanta; q != uint64(tc.quanta) {
				t.Fatalf("64 blocks drained in %d quanta, want %d at quantum %d", q, tc.quanta, tc.quantum)
			}
			for k, n := range probe.blocks {
				if n != tc.quantum {
					t.Fatalf("decisions served %v blocks, want %d decisions of %d (decision %d)",
						probe.blocks, tc.quanta, tc.quantum, k)
				}
			}
		})
	}
}
