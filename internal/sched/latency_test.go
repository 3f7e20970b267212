package sched_test

// Loopback tests for the latency-attribution layer: stage histograms filed
// by the scheduler's sampled stamping, the tenant records and /sessions
// rows, the Done-carried timing document back to the client, and the worker
// stall watchdog.

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"cohort"
	"cohort/client"
	"cohort/internal/sched"
)

// TestLatencyAttributionLoopback drives a real client through a sampled
// (1-in-1) scheduler and checks every surface the attribution layer exports:
// the Done timing document, LastServerTiming (nil until the Done is read,
// then the Done's document), the per-tenant stage totals, the tenant-labeled
// Prometheus stage families, and the stage-sum ≤ end-to-end invariant.
func TestLatencyAttributionLoopback(t *testing.T) {
	reg := cohort.NewRegistry()
	s, addr := startServer(t, sched.Config{
		Engines: 1, Quantum: 8, QueueCap: 256, Registry: reg, LatencySample: 1,
	})

	start := time.Now()
	c, err := client.Connect(addr, client.Options{
		Tenant: "lat", Accel: "null", ServerTiming: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	in := make([]cohort.Word, 512)
	for i := range in {
		in[i] = cohort.Word(i)
	}
	sent := make(chan error, 1)
	go func() {
		if err := c.Send(in); err != nil {
			sent <- err
			return
		}
		sent <- c.CloseSend()
	}()
	buf := make([]cohort.Word, 64)
	for {
		if _, err := c.RecvInto(buf); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if tel := c.LastServerTiming(); tel != nil {
			t.Fatalf("LastServerTiming() = %+v before the Done was read", tel)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	res := c.Result()
	if res.Timing == nil {
		t.Fatal("done reply has no timing despite ServerTiming opt-in")
	}

	tel := c.LastServerTiming()
	if tel == nil || *tel != *res.Timing {
		t.Fatalf("LastServerTiming() = %+v after done, want the Done's %+v", tel, res.Timing)
	}
	if tel.Session != c.Session() {
		t.Errorf("telemetry session = %d, want %d", tel.Session, c.Session())
	}
	if tel.Compute.Samples == 0 || tel.Sched.Samples == 0 {
		t.Fatalf("no sched/compute samples at 1-in-1 sampling: %+v", tel)
	}
	if tel.Queue.Samples == 0 {
		t.Errorf("no queue samples: the socket reader's ingress stamp never closed: %+v", tel)
	}
	if tel.Wire.Samples == 0 {
		t.Errorf("no wire samples: the result pump's egress stamp never closed: %+v", tel)
	}
	// The stages are disjoint intervals inside the client's end-to-end window:
	// their per-quantum means cannot add up past the whole wall-clock run.
	if sum := tel.ServerMeanNs(); sum <= 0 || sum > float64(elapsed) {
		t.Errorf("server stage-mean sum %.0fns outside (0, e2e %dns]", sum, elapsed)
	}

	// The per-tenant aggregate persists after the session retired.
	if live := s.Sessions(); len(live) != 0 {
		t.Errorf("%d live sessions after done, want 0", len(live))
	}
	tenants := s.Totals().Tenants
	if len(tenants) != 1 || tenants[0].Tenant != "lat" {
		t.Fatalf("Totals().Tenants = %+v, want one record for tenant lat", tenants)
	}
	stages := tenants[0].Stages.Since(sched.StageTotals{})
	if n := stages.Compute.Samples; n == 0 {
		t.Errorf("tenant compute aggregate is empty: %+v", stages)
	}
	if p := stages.Compute.P99Ns; p < stages.Compute.P50Ns {
		t.Errorf("compute p99 %.0f < p50 %.0f", p, stages.Compute.P50Ns)
	}

	// The persistent "tenant/<tenant>" record renders tenant-labeled stage
	// summary families on /metrics even with the session gone.
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE cohort_stage_queue_ns summary",
		"# TYPE cohort_stage_sched_ns summary",
		"# TYPE cohort_stage_compute_ns summary",
		"# TYPE cohort_stage_wire_ns summary",
		`cohort_stage_compute_ns_count{source="tenant/lat",tenant="lat"}`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestNoTimingWithoutOptIn: a client that does not ask for timing gets no
// DoneReply.Timing, even though server-side sampling still runs.
func TestNoTimingWithoutOptIn(t *testing.T) {
	_, addr := startServer(t, sched.Config{
		Engines: 1, Quantum: 8, QueueCap: 256, LatencySample: 1,
	})
	c, err := client.Connect(addr, client.Options{Tenant: "plain", Accel: "null"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, res, err := c.Stream(make([]cohort.Word, 128)); err != nil {
		t.Fatal(err)
	} else if res.Timing != nil {
		t.Errorf("done reply carries timing without opt-in: %+v", res.Timing)
	}
	if tel := c.LastServerTiming(); tel != nil {
		t.Errorf("LastServerTiming() = %+v without opt-in, want nil", tel)
	}
}

// TestSessionsEnrichedUnderChurn: mid-stream /sessions rows carry admission
// timestamps, ages and a latency breakdown alongside the cumulative
// counters, for every concurrently live session.
func TestSessionsEnrichedUnderChurn(t *testing.T) {
	s, addr := startServer(t, sched.Config{
		Engines: 2, Quantum: 4, QueueCap: 128, LatencySample: 1,
	})

	const tenants = 3
	before := time.Now()
	var wg sync.WaitGroup
	hold := make(chan struct{})
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Connect(addr, client.Options{Tenant: "churn", Accel: "null"})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			if err := c.Send(make([]cohort.Word, 64)); err != nil {
				t.Error(err)
				return
			}
			<-hold // keep the session live while the main goroutine inspects
			if _, _, err := c.Stream(nil); err != nil {
				t.Error(err)
			}
		}(i)
	}

	// Wait until every session is admitted and has served blocks.
	deadline := time.Now().Add(5 * time.Second)
	var rows []sched.SessionInfo
	for {
		rows = s.Sessions()
		served := 0
		for _, r := range rows {
			if r.Blocks > 0 {
				served++
			}
		}
		if len(rows) == tenants && served == tenants {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sessions never settled: %+v", rows)
		}
		time.Sleep(time.Millisecond)
	}
	for _, r := range rows {
		if r.Admitted.Before(before) || r.Admitted.After(time.Now()) {
			t.Errorf("session %d admitted %v outside test window", r.ID, r.Admitted)
		}
		if r.AgeMs <= 0 {
			t.Errorf("session %d age %.3fms, want > 0", r.ID, r.AgeMs)
		}
		if r.Latency == nil {
			t.Errorf("session %d has no latency breakdown", r.ID)
		} else if r.Latency.Compute.Samples == 0 {
			t.Errorf("session %d latency has no compute samples: %+v", r.ID, r.Latency)
		}
		if r.WordsIn == 0 || r.WordsOut == 0 {
			t.Errorf("session %d cumulative counters empty: %+v", r.ID, r)
		}
	}
	close(hold)
	wg.Wait()
}

// wedgeAccel blocks inside Process until released — a worker that dispatches
// it is wedged exactly like a hung hardware engine.
type wedgeAccel struct{ release chan struct{} }

func (a *wedgeAccel) Name() string               { return "wedge" }
func (a *wedgeAccel) InWords() int               { return 1 }
func (a *wedgeAccel) OutWords() int              { return 1 }
func (a *wedgeAccel) Configure(csr []byte) error { return nil }
func (a *wedgeAccel) Process(in []cohort.Word) ([]cohort.Word, error) {
	<-a.release
	return in, nil
}

// TestWatchWorkersStallDetection: a worker wedged inside an accelerator's
// Process while work is pending is declared stalled by the watchdog (and
// recovers once the accelerator unblocks).
func TestWatchWorkersStallDetection(t *testing.T) {
	s := sched.New(sched.Config{Engines: 1, Quantum: 2, QueueCap: 16})
	dog := cohort.NewWatchdog(30*time.Millisecond, cohort.WithPollEvery(5*time.Millisecond))
	defer dog.Stop()
	s.WatchWorkers(dog)

	// Idle pool: pending is false, so no amount of waiting is a stall.
	time.Sleep(80 * time.Millisecond)
	if n := dog.Stalls(); n != 0 {
		t.Fatalf("idle scheduler reported %d stalls", n)
	}

	acc := &wedgeAccel{release: make(chan struct{})}
	ss, err := s.Register(sched.SessionConfig{Tenant: "wedge", Accel: acc})
	if err != nil {
		t.Fatal(err)
	}
	ss.In().PushSlice([]cohort.Word{1, 2})

	// Wait for the wedged worker's row to read stalled. Stalls() > 0 alone
	// proves nothing: under -race a late wake-up can count as a stall and
	// have recovered before the wedge.
	stalled := func() bool {
		for _, h := range dog.Health() {
			if strings.HasPrefix(h.Engine, "sched/w") && h.Stalled {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(5 * time.Second)
	for !stalled() {
		if time.Now().After(deadline) {
			t.Fatalf("no sched/w* row stalled in Health() within 5s: %+v", dog.Health())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Unblock: the worker finishes the quantum and the stall clears.
	close(acc.release)
	ss.CloseSend()
	buf := make([]cohort.Word, 4)
	for drained := 0; drained < 2; {
		drained += ss.Out().TryPopInto(buf)
		time.Sleep(time.Millisecond)
	}
	<-ss.Done()
	deadline = time.Now().Add(5 * time.Second)
	for {
		healthy := true
		for _, h := range dog.Health() {
			if h.Stalled {
				healthy = false
			}
		}
		if healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stall never cleared after the worker resumed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	dog.Stop()
	s.Close()
}
