//go:build linux

package shmring

import (
	"errors"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"cohort/internal/shmq"
)

// pair creates a region and attaches a second mapping of it, as a shard and
// its client do, and unlinks the file once both have it mapped.
func pair(t testing.TB, words int) (shard, client *Region) {
	t.Helper()
	shard, err := Create(words)
	if err != nil {
		t.Fatal(err)
	}
	client, err = Attach(shard.Name(), words)
	if err != nil {
		shard.Close()
		t.Fatal(err)
	}
	shard.Unlink()
	t.Cleanup(func() { shard.Close(); client.Close() })
	return shard, client
}

// TestLayoutIsShmqs: each ring sits where shmq.Layout puts a queue of
// 8-byte elements — write index, read index, element array, each on its own
// line — with ring 1 one shmq.Footprint after ring 0, and each armed word on
// its owner's index line.
func TestLayoutIsShmqs(t *testing.T) {
	const words = 256
	r, _ := pair(t, words)
	base := uintptr(unsafe.Pointer(&r.mem[0]))
	for i := 0; i < 2; i++ {
		off := uint64(i) * shmq.Footprint(8, words)
		d := shmq.Layout(off, 8, words)
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		data, wIdx, wArmed, rIdx, rArmed := r.ringAt(i)
		at := func(p *uint64) uint64 { return uint64(uintptr(unsafe.Pointer(p)) - base) }
		if at(wIdx) != d.WriteIdx || at(rIdx) != d.ReadIdx || at(&data[0]) != d.Base || len(data) != words {
			t.Fatalf("ring %d: write %d read %d data %d (%d words), shmq puts them at %d %d %d",
				i, at(wIdx), at(rIdx), at(&data[0]), len(data), d.WriteIdx, d.ReadIdx, d.Base)
		}
		if at(wArmed)/lineBytes != d.WriteIdx/lineBytes || at(rArmed)/lineBytes != d.ReadIdx/lineBytes {
			t.Fatalf("ring %d: armed words at %d and %d, off their index lines", i, at(wArmed), at(rArmed))
		}
	}
	if len(r.mem) != int(2*shmq.Footprint(8, words)) {
		t.Fatalf("region is %d bytes, want two shmq footprints (%d)", len(r.mem), 2*shmq.Footprint(8, words))
	}
}

// TestRingRoundTrip: words pushed at one mapping come out of the other in
// order, across many wraps, in runs of every size up to the ring's.
func TestRingRoundTrip(t *testing.T) {
	const words = minWords
	a, b := pair(t, words)
	p, c := a.Producer(1), b.Consumer(1)
	rng := rand.New(rand.NewSource(1))
	var next, want uint64
	src := make([]uint64, 2*words)
	for round := 0; round < 2000; round++ {
		k := rng.Intn(len(src) + 1)
		for i := range src[:k] {
			src[i] = next + uint64(i)
		}
		n, _, err := p.Push(src[:k/2], src[k/2:k])
		if err != nil {
			t.Fatal(err)
		}
		next += uint64(n)
		x, y, err := c.Segments()
		if err != nil {
			t.Fatal(err)
		}
		take := rng.Intn(len(x) + len(y) + 1)
		for i, v := range append(append([]uint64(nil), x...), y...)[:take] {
			if v != want+uint64(i) {
				t.Fatalf("round %d: word %d is %d, want %d", round, i, v, want+uint64(i))
			}
		}
		c.Commit(take)
		want += uint64(take)
	}
}

// TestCorruptIndicesRefused: an index the peer moves backwards or more than
// a ring past this end's cursor is an error, and no view reaches past the
// ring, whatever the peer stores.
func TestCorruptIndicesRefused(t *testing.T) {
	const words = minWords
	for _, tc := range []struct {
		name string
		bad  func(w, r uint64) (wIdx, rIdx uint64)
		// consumer reports whether the consumer (else the producer) must see it.
		consumer bool
	}{
		{"write index a ring and one past the read", func(w, r uint64) (uint64, uint64) { return r + words + 1, r }, true},
		{"write index backwards", func(w, r uint64) (uint64, uint64) { return w - 1, r }, true},
		{"write index wrapped to huge", func(w, r uint64) (uint64, uint64) { return ^uint64(0), r }, true},
		{"read index past the write", func(w, r uint64) (uint64, uint64) { return w, w + 1 }, false},
		{"read index backwards", func(w, r uint64) (uint64, uint64) { return w, r - 1 }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := pair(t, words)
			// The shard's ends: it consumes ring 0 and produces ring 1; b, the
			// untrusted client's mapping, is where the bad indices go.
			in, out := a.Consumer(0), a.Producer(1)
			peerIn, peerOut := b.Producer(0), b.Consumer(1)
			if _, _, err := peerIn.Push(make([]uint64, words/2), nil); err != nil {
				t.Fatal(err)
			}
			if _, _, err := out.Push(make([]uint64, words/2), nil); err != nil {
				t.Fatal(err)
			}
			x, y, _ := in.Segments()
			in.Commit(len(x) + len(y))
			x, y, _ = peerOut.Segments()
			peerOut.Commit(len(x) + len(y))
			if _, _, err := out.Push(make([]uint64, 4), nil); err != nil { // out learns the read index
				t.Fatal(err)
			}
			_, w0, _, _, _ := b.ringAt(0)
			_, _, _, r1, _ := b.ringAt(1)
			if tc.consumer {
				w, _ := tc.bad(*w0, in.r)
				atomic.StoreUint64(w0, w)
				if in.Pending() != true {
					t.Fatal("last look does not send the consumer back to Segments")
				}
				if x, y, err := in.Segments(); !errors.Is(err, errCorrupt) || len(x)+len(y) != 0 {
					t.Fatalf("Segments = %d+%d words, %v; want errCorrupt", len(x), len(y), err)
				}
				return
			}
			_, r := tc.bad(out.w, *r1)
			atomic.StoreUint64(r1, r)
			if !out.Room() {
				t.Fatal("last look does not send the producer back to Push")
			}
			if n, _, err := out.Push(make([]uint64, words), nil); !errors.Is(err, errCorrupt) || n != 0 {
				t.Fatalf("Push = %d, %v; want errCorrupt", n, err)
			}
		})
	}
}

// TestLostWakeupHammer drives a tiny ring between two goroutines that park
// whenever they cannot move, each on a channel that stands for its socket:
// Arm, a last look, then wait, and the other side sends one Doorbell per
// Arm it takes. A lost wakeup leaves both parked, and the watchdog fails
// the test; run it under -race with -count to repeat.
func TestLostWakeupHammer(t *testing.T) {
	const words, total = minWords, 200_000
	a, b := pair(t, words)
	p, c := a.Producer(0), b.Consumer(0)
	toProducer, toConsumer := make(chan struct{}, 1), make(chan struct{}, 1)
	bell := func(ch chan struct{}) {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	done := make(chan error, 2)
	go func() { // producer
		rng := rand.New(rand.NewSource(2))
		buf := make([]uint64, words)
		for sent := uint64(0); sent < total; {
			k := min(1+rng.Intn(words), total-int(sent))
			for i := range buf[:k] {
				buf[i] = sent + uint64(i)
			}
			n, ring, err := p.Push(buf[:k], nil)
			if err != nil {
				done <- err
				return
			}
			if ring {
				bell(toConsumer)
			}
			sent += uint64(n)
			if n == 0 {
				p.Arm()
				if !p.Room() {
					<-toProducer
				}
				p.Disarm()
			}
		}
		done <- nil
	}()
	go func() { // consumer
		for got := uint64(0); got < total; {
			x, y, err := c.Segments()
			if err != nil {
				done <- err
				return
			}
			if n := len(x) + len(y); n > 0 {
				for i, v := range append(x, y...) {
					if v != got+uint64(i) {
						done <- errors.New("words out of order")
						return
					}
				}
				if c.Commit(n) {
					bell(toProducer)
				}
				got += uint64(n)
				continue
			}
			c.Arm()
			if !c.Pending() {
				<-toConsumer
			}
			c.Disarm()
		}
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("both sides parked: a wakeup was lost")
		}
	}
}

// TestAttachRefuses: a client maps only what a shard could have created —
// a cohort- name of digits, hex and dashes naming this user's 0600 plain
// file of exactly the region's size — and never follows a symlink.
func TestAttachRefuses(t *testing.T) {
	r, err := Create(minWords)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, name := range []string{"", "cohort-", "../shm/" + r.Name(), "other-1-2", r.Name() + "/x", "cohort-XYZ"} {
		if _, err := Attach(name, minWords); err == nil {
			t.Errorf("Attach(%q) mapped a region", name)
		}
	}
	if _, err := Attach(r.Name(), 2*minWords); err == nil {
		t.Error("Attach mapped a region of the wrong size")
	}
	if _, err := Attach(r.Name(), minWords+1); err == nil {
		t.Error("Attach took a ring size that is not a power of two")
	}
	link := "cohort-1-1-deadbeef"
	if err := os.Symlink(dir+r.Name(), dir+link); err != nil {
		t.Fatal(err)
	}
	defer os.Remove(dir + link)
	if _, err := Attach(link, minWords); err == nil {
		t.Error("Attach followed a symlink")
	}
	if err := os.Chmod(dir+r.Name(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(r.Name(), minWords); err == nil {
		t.Error("Attach mapped a region others can read")
	}
}

// TestCreateExclusive: Create makes a fresh 0600 file, never opens one that
// is there, and Close removes it.
func TestCreateExclusive(t *testing.T) {
	r, err := Create(minWords)
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Lstat(dir + r.Name())
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o600 || !st.Mode().IsRegular() {
		t.Fatalf("region file mode %v, want a 0600 plain file", st.Mode())
	}
	fd, err := syscall.Open(dir+r.Name(), syscall.O_RDWR|syscall.O_CREAT|syscall.O_EXCL|syscall.O_NOFOLLOW, 0o600)
	if err == nil {
		syscall.Close(fd)
		t.Fatal("the region's name is open to a second exclusive create")
	}
	name := r.Name()
	r.Close()
	if _, err := os.Lstat(dir + name); !os.IsNotExist(err) {
		t.Fatalf("region file left after Close: %v", err)
	}
}

// TestCloseWaitsForExit: Close from one goroutine leaves the mapping to a
// caller still inside Enter, and refuses any later Enter.
func TestCloseWaitsForExit(t *testing.T) {
	a, _ := pair(t, minWords)
	if !a.Enter() {
		t.Fatal("Enter refused on an open region")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); a.Close() }()
	wg.Wait()
	if a.Enter() {
		t.Fatal("Enter admitted after Close")
	}
	p := a.Producer(0)
	if _, _, err := p.Push([]uint64{1, 2, 3}, nil); err != nil { // still mapped: no fault
		t.Fatal(err)
	}
	a.Exit()
	if got := a.refs.Load(); got != 1 {
		t.Fatalf("refs = %d after the last Exit, want 1 (closed, none inside)", got)
	}
}

// regionFiles lists the region files in the shared-memory directory that a
// process with this pid created.
func regionFiles(t testing.TB, pid int) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	prefix := namePrefix + itoa(pid) + "-"
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), prefix) {
			out = append(out, e.Name())
		}
	}
	return out
}

func itoa(n int) string {
	var b [20]byte
	i := len(b)
	for {
		i--
		b[i] = byte('0' + n%10)
		if n /= 10; n == 0 {
			return string(b[i:])
		}
	}
}

// TestRegionsLeaveNoFile: every test above closed what it created.
func TestRegionsLeaveNoFile(t *testing.T) {
	if files := regionFiles(t, os.Getpid()); len(files) != 0 {
		t.Fatalf("region files left behind: %v", files)
	}
}
