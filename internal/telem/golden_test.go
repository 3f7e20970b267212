package telem

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"cohort"
	"cohort/internal/sched"
)

// goldenDocs is what the golden file pins: the sampler's two documents, as
// the daemon serves them.
type goldenDocs struct {
	Windows WindowsDoc `json:"windows"`
	SLO     SLODoc     `json:"slo"`
}

// TestTelemetryDocumentsGolden drives a real scheduler through a scripted
// history — clean streams, a transient fault that recovers, a terminal
// fault, a kill and an admission rejection — and ticks a sampler over it on
// a synthetic clock. Every session's input is queued and closed before it
// registers, so each one is served in a fixed number of decisions, and
// stage sampling is off, so every value in the documents is exact. Set
// UPDATE_GOLDEN=1 to rewrite testdata/documents.golden.json.
func TestTelemetryDocumentsGolden(t *testing.T) {
	s := sched.New(sched.Config{
		Engines: 1, Quantum: 8, MaxSessions: 2, QueueCap: 256,
		Retries: 2, LatencySample: -1,
	})
	defer s.Close()
	smp := newGoldenSampler(t, s)

	// open registers a session with an empty, open input: it takes no
	// decision until it is closed or killed.
	open := func(tenant string) *sched.Session {
		t.Helper()
		ss, err := s.Register(sched.SessionConfig{Tenant: tenant, Accel: cohort.NewSHA256()})
		if err != nil {
			t.Fatal(err)
		}
		return ss
	}

	smp.tick(t0)
	// alpha streams 16 SHA-256 blocks cleanly: two full quanta.
	if ss := serve(t, s, "alpha", cohort.NewSHA256(), 16*8); ss.Err() != nil {
		t.Fatalf("alpha: %v", ss.Err())
	}
	// bravo's block 2 fails once and recovers on retry; block 5 fails
	// terminally.
	faulty := cohort.NewFaultAccel(cohort.NewSHA256(), cohort.FaultPlan{
		Transient:     []cohort.TransientFault{{Block: 2, Count: 1}},
		TerminalAfter: 5,
	})
	if ss := serve(t, s, "bravo", faulty, 8*8); ss.Err() == nil {
		t.Fatal("bravo: terminal fault did not retire the session")
	}
	smp.tick(t0.Add(time.Second))

	// carol is killed before it is ever served.
	carol := open("carol")
	carol.Kill()
	<-carol.Done()
	// Two live alpha sessions fill admission; dave is refused.
	a1, a2 := open("alpha"), open("alpha")
	if _, err := s.Register(sched.SessionConfig{Tenant: "dave", Accel: cohort.NewSHA256()}); !errors.Is(err, sched.ErrTooManySessions) {
		t.Fatalf("dave: err = %v, want ErrTooManySessions", err)
	}
	smp.tick(t0.Add(2 * time.Second))
	a1.CloseSend()
	a2.CloseSend()
	<-a1.Done()
	<-a2.Done()
	// Two more ticks: bravo's burst ages out of the 3s short window (its
	// breach recovers), while the 6s long window still covers the whole
	// history.
	smp.tick(t0.Add(3 * time.Second))
	smp.tick(t0.Add(4 * time.Second))

	got, err := json.MarshalIndent(goldenDocs{
		Windows: smp.Windows(), SLO: smp.Status(),
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	const path = "testdata/documents.golden.json"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("telemetry documents differ from %s.\n--- got ---\n%s", path, got)
	}
}

// serve registers a session whose whole input is already queued and closed,
// and waits for it to retire.
func serve(t *testing.T, s *sched.Scheduler, tenant string, acc cohort.Accelerator, words int) *sched.Session {
	t.Helper()
	in, err := cohort.NewFifo[cohort.Word](256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < words; i++ {
		in.Push(cohort.Word(i)*2654435761 + 7)
	}
	in.Close()
	ss, err := s.Register(sched.SessionConfig{Tenant: tenant, Accel: acc, In: in})
	if err != nil {
		t.Fatal(err)
	}
	<-ss.Done()
	return ss
}

// newGoldenSampler builds the golden test's sampler over the scheduler's
// records: a 1s tick, 3s and 6s windows, and an error budget on every
// tenant.
func newGoldenSampler(t *testing.T, s *sched.Scheduler) *Sampler {
	t.Helper()
	smp := New(Config{
		Source: s.Totals,
		Tick:   time.Second,
		Short:  3 * time.Second,
		Long:   6 * time.Second,
		SLOs:   []SLO{{Tenant: "*", MaxErrorsPerSec: 1}},
	})
	t.Cleanup(smp.Stop)
	return smp
}

// TestIdleTenantsShareRecords: the ring holds one copy of a tenant record
// per change, not one per tick, and a tick summarizes only what changed. A
// thousand retired tenants across a full long window of idle ticks are a
// thousand records and cost the next tick no stage summary; a session
// served between two ticks adds exactly one record and three summaries (its
// tenant's short, long and lifetime rows).
func TestIdleTenantsShareRecords(t *testing.T) {
	s := sched.New(sched.Config{LatencySample: -1})
	defer s.Close()
	const tenants = 1000
	for i := 0; i < tenants; i++ {
		serve(t, s, fmt.Sprintf("t%04d", i), cohort.NewNull(), 0)
	}
	smp := New(Config{Source: s.Totals}) // the defaults: 1s tick, 5 min long window
	t.Cleanup(smp.Stop)
	if len(smp.frames) != 301 {
		t.Fatalf("ring holds %d frames, want 301", len(smp.frames))
	}
	distinct := func() int {
		recs := make(map[*sched.TenantTotals]bool)
		for _, fr := range smp.frames {
			for _, r := range fr.tenants {
				recs[r] = true
			}
		}
		return len(recs)
	}
	for i := range smp.frames {
		smp.tick(t0.Add(time.Duration(i) * time.Second))
	}
	if n := distinct(); n != tenants {
		t.Fatalf("ring holds %d distinct tenant records after %d idle ticks, want %d",
			n, len(smp.frames), tenants)
	}
	smp.tick(t0.Add(time.Duration(len(smp.frames)) * time.Second))
	if smp.summaries != 0 {
		t.Fatalf("an idle tick over %d unchanged tenants computed %d stage summaries, want 0", tenants, smp.summaries)
	}
	serve(t, s, "t0500", cohort.NewNull(), 4)
	smp.tick(t0.Add(time.Duration(len(smp.frames)+1) * time.Second))
	if n := distinct(); n != tenants+1 {
		t.Fatalf("ring holds %d distinct tenant records after one tenant served, want %d", n, tenants+1)
	}
	if smp.summaries != 3 {
		t.Fatalf("a tick after one tenant changed computed %d stage summaries, want 3", smp.summaries)
	}
	if w := smp.Windows(); len(w.Tenants) != tenants || w.Tenants[500].Short.BlocksPerSec == 0 {
		t.Fatalf("windows: %d tenants, t0500 short view %+v", len(w.Tenants), w.Tenants[500].Short)
	}
}
