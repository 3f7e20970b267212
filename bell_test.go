package cohort

import (
	"testing"
	"time"
)

// TestBellPingPongNoLostWakeup drives the Arm → last look → wait protocol
// from both ends of a 1-slot queue for 10^5 rounds: the consumer parks on
// the push bell for each element, the producer on the pop bell for room.
// Every round parks whichever side runs ahead, so each publication races a
// waiter arming. A lost wakeup leaves a side waiting on a bell nobody will
// ring; the per-wait deadline turns that hang into a failure.
func TestBellPingPongNoLostWakeup(t *testing.T) {
	const rounds = 100_000
	const deadline = 5 * time.Second
	q, err := NewFifo[int](1)
	if err != nil {
		t.Fatal(err)
	}
	data, room := NewBell(), NewBell()
	q.OnPush(data)
	q.OnPop(room)

	// park waits on b until look reports true, following the protocol; it
	// reports false if a wait outlives the deadline.
	park := func(b *Bell, timer *time.Timer, look func() bool) bool {
		for !look() {
			b.Arm()
			if look() {
				b.Disarm()
				return true
			}
			timer.Reset(deadline)
			select {
			case <-b.C():
				if !timer.Stop() {
					<-timer.C
				}
			case <-timer.C:
				b.Disarm()
				return false
			}
			b.Disarm()
		}
		return true
	}

	lost := make(chan string, 1)
	go func() {
		timer := time.NewTimer(time.Hour)
		defer timer.Stop()
		for i := 0; i < rounds; i++ {
			if !park(room, timer, func() bool { return q.TryPush(i) }) {
				lost <- "producer"
				return
			}
		}
		q.Close()
	}()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for i := 0; i < rounds; i++ {
		var v int
		var ok bool
		if !park(data, timer, func() bool { v, ok = q.TryPop(); return ok }) {
			select {
			case who := <-lost:
				t.Fatalf("round %d: %s wait outlived %v: lost wakeup", i, who, deadline)
			default:
				t.Fatalf("round %d: consumer wait outlived %v: lost wakeup", i, deadline)
			}
		}
		if v != i {
			t.Fatalf("round %d: popped %d", i, v)
		}
	}
	// Close rings the push bell too: the consumer parks until end of stream.
	if !park(data, timer, q.Drained) {
		t.Fatal("Close did not wake the consumer parked on the push bell")
	}
}

// TestBellRingUnarmedLeavesNoToken: a ring with nobody armed is a no-op, so
// an idle publisher never leaves a stale wakeup behind; an armed ring leaves
// exactly one token however many rings merge into it.
func TestBellRingUnarmedLeavesNoToken(t *testing.T) {
	b := NewBell()
	b.Ring()
	select {
	case <-b.C():
		t.Fatal("unarmed ring left a token")
	default:
	}
	b.Arm()
	b.Ring()
	b.Ring()
	b.Disarm()
	<-b.C()
	select {
	case <-b.C():
		t.Fatal("two rings left two tokens")
	default:
	}
}

// TestFifoBellDetach: OnPush(nil)/OnPop(nil) detach — publications after
// the detach ring nothing.
func TestFifoBellDetach(t *testing.T) {
	q, _ := NewFifo[Word](4)
	b := NewBell()
	q.OnPush(b)
	q.OnPop(b)
	b.Arm()
	defer b.Disarm()
	q.TryPush(1)
	<-b.C()
	q.TryPop()
	<-b.C()
	q.OnPush(nil)
	q.OnPop(nil)
	q.TryPush(2)
	q.TryPop()
	q.Close()
	select {
	case <-b.C():
		t.Fatal("detached bell rang")
	default:
	}
}

// TestBellArmedPublicationAllocs pins the doorbell's cost on the bulk
// publication paths: with a bell attached to both ends and armed, so every
// publication hands over a token, TryPushSlice, CommitWrite and CommitRead
// allocate nothing.
func TestBellArmedPublicationAllocs(t *testing.T) {
	q, _ := NewFifo[Word](64)
	b := NewBell()
	q.OnPush(b)
	q.OnPop(b)
	b.Arm()
	defer b.Disarm()
	src := make([]Word, 8)
	step := func() {
		q.TryPushSlice(src)
		<-b.C()
		wa, _ := q.WriteSegments()
		copy(wa, src[:1])
		q.CommitWrite(1)
		<-b.C()
		ra, rb := q.ReadSegments()
		q.CommitRead(len(ra) + len(rb))
		<-b.C()
	}
	step()
	if avg := testing.AllocsPerRun(256, step); avg != 0 {
		t.Errorf("armed-bell publications allocate %.2f times per round, want 0", avg)
	}
}
