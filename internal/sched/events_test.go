package sched

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"cohort"
)

// captureSink records emitted events for assertions.
type captureSink struct {
	mu     sync.Mutex
	events []capturedEvent
}

type capturedEvent struct {
	typ, tenant, detail string
	session             uint64
}

func (c *captureSink) Emit(typ, tenant string, session uint64, detail string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, capturedEvent{typ, tenant, detail, session})
}

func (c *captureSink) byType(typ string) []capturedEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []capturedEvent
	for _, e := range c.events {
		if e.typ == typ {
			out = append(out, e)
		}
	}
	return out
}

func TestEventEmissionKillTerminalReject(t *testing.T) {
	sink := &captureSink{}
	s := New(Config{Engines: 1, MaxSessions: 1, Events: sink})
	defer s.Close()

	// Terminal fault: a session whose accelerator fails terminally on its
	// first block.
	fa := cohort.NewFaultAccel(cohort.NewNull(), cohort.FaultPlan{TerminalAfter: 1})
	ss, err := s.Register(SessionConfig{Tenant: "faulty", Accel: fa})
	if err != nil {
		t.Fatal(err)
	}

	// Admission rejection while the first session holds the only slot.
	if _, err := s.Register(SessionConfig{Tenant: "late", Accel: cohort.NewNull()}); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("expected rejection, got %v", err)
	}
	rejects := sink.byType(eventAdmissionReject)
	if len(rejects) != 1 || rejects[0].tenant != "late" || !strings.Contains(rejects[0].detail, "max 1") {
		t.Fatalf("admission_reject events = %+v", rejects)
	}

	ss.In().PushSlice(make([]cohort.Word, 4))
	ss.CloseSend()
	<-ss.Done()
	if err := ss.Err(); err == nil {
		t.Fatal("faulty session retired without error")
	}
	faults := sink.byType(eventTerminalFault)
	if len(faults) != 1 || faults[0].tenant != "faulty" || faults[0].session != ss.ID() {
		t.Fatalf("terminal_fault events = %+v", faults)
	}
	if !strings.Contains(faults[0].detail, "after 1 blocks") {
		t.Errorf("terminal_fault detail = %q, want completed-block count", faults[0].detail)
	}

	// Kill: a fresh idle session killed by the operator.
	victim, err := s.Register(SessionConfig{Tenant: "victim", Accel: cohort.NewNull()})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Kill(victim.ID()) {
		t.Fatal("Kill found no session")
	}
	<-victim.Done()
	kills := sink.byType(eventSessionKill)
	if len(kills) != 1 || kills[0].tenant != "victim" || kills[0].session != victim.ID() {
		t.Fatalf("session_kill events = %+v", kills)
	}
}

func TestTenantTotalsPersistAcrossChurn(t *testing.T) {
	reg := cohort.NewRegistry()
	s := New(Config{Engines: 1, Registry: reg})
	defer s.Close()

	// Two sessions for the same tenant, serially; totals must accumulate.
	const words = 32
	for i := 0; i < 2; i++ {
		ss, err := s.Register(SessionConfig{Tenant: "alice", Accel: cohort.NewNull()})
		if err != nil {
			t.Fatal(err)
		}
		ss.In().PushSlice(make([]cohort.Word, words))
		ss.CloseSend()
		<-ss.Done()
	}

	snaps, labels := reg.SnapshotLabeled()
	var got map[string]uint64
	for i, sn := range snaps {
		if sn.Name != "tenant/alice" {
			continue
		}
		if len(labels[i]) != 1 || labels[i][0] != (cohort.Label{Key: "tenant", Value: "alice"}) {
			t.Fatalf("tenant/alice labels = %+v", labels[i])
		}
		got = make(map[string]uint64, len(sn.Metrics))
		for _, m := range sn.Metrics {
			got[m.Name] = m.Value
		}
	}
	if got == nil {
		t.Fatal("no tenant/alice source after session churn")
	}
	if got["blocks"] != 2*words || got["words_in"] != 2*words || got["words_out"] != 2*words {
		t.Fatalf("tenant totals = %+v, want %d blocks/words accumulated over both sessions", got, 2*words)
	}

	s.Close()
	for _, sn := range reg.Snapshot() {
		if sn.Name == "tenant/alice" {
			t.Fatal("tenant/alice source survives Close")
		}
	}
}

func TestTenantTotalsCountRetries(t *testing.T) {
	sink := &captureSink{}
	reg := cohort.NewRegistry()
	s := New(Config{Engines: 1, Registry: reg, Retries: 3, Events: sink})
	defer s.Close()

	fa := cohort.NewFaultAccel(cohort.NewNull(), cohort.FaultPlan{
		Transient: []cohort.TransientFault{{Block: 1, Count: 2}},
	})
	ss, err := s.Register(SessionConfig{Tenant: "flaky", Accel: fa})
	if err != nil {
		t.Fatal(err)
	}
	ss.In().PushSlice(make([]cohort.Word, 8))
	ss.CloseSend()
	<-ss.Done()
	if err := ss.Err(); err != nil {
		t.Fatalf("flaky session should recover, got %v", err)
	}

	for _, sn := range reg.Snapshot() {
		if sn.Name != "tenant/flaky" {
			continue
		}
		m := map[string]uint64{}
		for _, mm := range sn.Metrics {
			m[mm.Name] = mm.Value
		}
		if m["retries"] != 2 || m["recovered"] != 1 {
			t.Fatalf("tenant totals = %+v, want 2 retries / 1 recovered", m)
		}
		return
	}
	t.Fatal("no tenant/flaky source")
}

// TestSchedTotalsAreTenantSums churns sessions of three tenants, one at a
// time, through retries that recover, a terminal fault, a kill and an
// admission rejection. After every retirement the scheduler-wide totals
// (Stats and the "sched" source) must equal the sums over the
// "tenant/<name>" sources and must not have gone backwards.
func TestSchedTotalsAreTenantSums(t *testing.T) {
	reg := cohort.NewRegistry()
	s := New(Config{Engines: 1, MaxSessions: 1, Retries: 3, Registry: reg})
	defer s.Close()

	var prev SchedStats
	seen := map[string]bool{}
	check := func(step string) {
		t.Helper()
		st := s.Stats()
		var sum, src SchedStats
		for _, sn := range reg.Snapshot() {
			var into *SchedStats
			switch {
			case sn.Name == "sched":
				into = &src
			case strings.HasPrefix(sn.Name, "tenant/"):
				into = &sum
			default:
				continue
			}
			for _, m := range sn.Metrics {
				switch m.Name {
				case "rejected":
					into.Rejected += m.Value
				case "retries", "transient_faults":
					into.TransientFaults += m.Value
				case "recovered":
					into.Recovered += m.Value
				case "terminal_faults":
					into.TerminalFaults += m.Value
				case "kills":
					into.Kills += m.Value
				}
			}
		}
		got := [5]uint64{st.Rejected, st.TransientFaults, st.Recovered, st.TerminalFaults, st.Kills}
		if want := [5]uint64{sum.Rejected, sum.TransientFaults, sum.Recovered, sum.TerminalFaults, sum.Kills}; got != want {
			t.Fatalf("%s: Stats rejected/transient/recovered/terminal/kills = %v, tenant sums %v", step, got, want)
		}
		if srcv := [5]uint64{src.Rejected, src.TransientFaults, src.Recovered, src.TerminalFaults, src.Kills}; got != srcv {
			t.Fatalf("%s: Stats %v, sched source %v", step, got, srcv)
		}
		before := [5]uint64{prev.Rejected, prev.TransientFaults, prev.Recovered, prev.TerminalFaults, prev.Kills}
		for i := range got {
			if got[i] < before[i] {
				t.Fatalf("%s: totals went backwards: %v after %v", step, got, before)
			}
		}
		if n := reg.Len(); n != 1+len(seen) {
			t.Fatalf("%s: registry holds %d sources, want %d (sched + one per tenant)", step, n, 1+len(seen))
		}
		prev = st
	}
	register := func(tenant string, acc cohort.Accelerator) *Session {
		t.Helper()
		seen[tenant] = true
		ss, err := s.Register(SessionConfig{Tenant: tenant, Accel: acc})
		if err != nil {
			t.Fatal(err)
		}
		return ss
	}

	tenants := []string{"a", "b", "c"}
	for round := 0; round < 9; round++ {
		tenant := tenants[round%3]
		acc := cohort.Accelerator(cohort.NewFaultAccel(cohort.NewNull(), cohort.FaultPlan{
			Transient: []cohort.TransientFault{{Block: 1, Count: 2}},
		}))
		if round == 4 {
			acc = cohort.NewFaultAccel(cohort.NewNull(), cohort.FaultPlan{TerminalAfter: 1})
		}
		ss := register(tenant, acc)
		step := fmt.Sprintf("round %d (%s)", round, tenant)
		switch round {
		case 4:
			ss.In().PushSlice(make([]cohort.Word, 8))
		case 5:
			ss.Kill()
		case 7:
			if _, err := s.Register(SessionConfig{Tenant: "a", Accel: cohort.NewNull()}); !errors.Is(err, ErrTooManySessions) {
				t.Fatalf("second live session: err = %v, want ErrTooManySessions", err)
			}
			fallthrough
		default:
			// Serve every block, then look while the session is still live:
			// its retirement must not take its counts out of the totals.
			ss.In().PushSlice(make([]cohort.Word, 8))
			for ss.Stats().Blocks < 8 {
				runtime.Gosched()
			}
			check(step + " served")
			ss.CloseSend()
		}
		<-ss.Done()
		check(step + " retired")
	}

	want := SchedStats{Rejected: 1, TransientFaults: 14, Recovered: 7, TerminalFaults: 1, Kills: 1}
	if got := s.Stats(); got.Rejected != want.Rejected || got.TransientFaults != want.TransientFaults ||
		got.Recovered != want.Recovered || got.TerminalFaults != want.TerminalFaults || got.Kills != want.Kills {
		t.Fatalf("final totals %+v, want %+v", got, want)
	}
}
