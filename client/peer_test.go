//go:build linux

package client_test

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"cohort"
	"cohort/client"
	"cohort/internal/shmring"
	"cohort/internal/wire"
)

// The peer tests run the other end of a same-host session in a second
// process: this test binary again, told its role after a "--"
// (TestPeerHelper). A region is mapped by two processes there, as it is in
// production, and killing one leaves the other to cope.

// peer starts this test binary as the peer with role and args, and
// returns it with its stdout.
func peer(t *testing.T, role string, args ...string) (*exec.Cmd, *bufio.Reader) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestPeerHelper$", "--", role}, args...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	return cmd, bufio.NewReader(out)
}

// line reads the peer's next output line, failing the test if none comes
// within ten seconds.
func line(t *testing.T, r *bufio.Reader) string {
	t.Helper()
	type read struct {
		s   string
		err error
	}
	got := make(chan read, 1)
	go func() {
		s, err := r.ReadString('\n')
		got <- read{s, err}
	}()
	select {
	case l := <-got:
		if l.err != nil {
			t.Fatalf("peer output: %q %v", l.s, l.err)
		}
		return strings.TrimSpace(l.s)
	case <-time.After(10 * time.Second):
		t.Fatal("the peer printed nothing for ten seconds")
		return ""
	}
}

// regionFiles lists the region files a process with pid created that are
// still linked.
func regionFiles(t *testing.T, pid int) []string {
	t.Helper()
	ents, err := os.ReadDir("/dev/shm")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), fmt.Sprintf("cohort-%d-", pid)) {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestPeerHelper is the peer process; it does nothing in a normal run.
func TestPeerHelper(t *testing.T) {
	args := flag.Args()
	if len(args) == 0 {
		t.Skip("the peer of the two-process tests")
	}
	if err := runPeer(args[0], args[1:]); err != nil {
		fmt.Println("peer failed:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

func runPeer(role string, args []string) error {
	switch role {
	case "shard": // serve until killed
		addr, _, _ := startLoopback(nopTB{}, 64, nil)
		fmt.Println(addr)
		select {}
	case "stream": // 1 Mi words each way through an echo session, to its Done
		c, err := client.Connect(args[0], client.Options{Tenant: "peer", Accel: "echo"})
		if err != nil {
			return err
		}
		if !client.Attached(c) {
			return errors.New("the session did not attach")
		}
		in := make([]cohort.Word, 1<<20)
		for i := range in {
			in[i] = cohort.Word(i) * 0x9e3779b97f4a7c15
		}
		out, res, err := c.Stream(in)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(out, in) || res.WordsIn != uint64(len(in)) {
			return fmt.Errorf("%d words back, done %+v", len(out), res)
		}
		c.Close()
		fmt.Println("ok")
		return nil
	case "hang": // stream without end until killed
		c, err := client.Connect(args[0], client.Options{Tenant: "peer", Accel: "echo"})
		if err != nil {
			return err
		}
		go func() {
			buf := make([]cohort.Word, 4096)
			for {
				if _, err := c.RecvInto(buf); err != nil {
					return
				}
			}
		}()
		in := make([]cohort.Word, 4096)
		for i := 0; ; i++ {
			if err := c.Send(in); err != nil {
				return err
			}
			if i == 0 {
				fmt.Println("streaming")
			}
		}
	case "corrupt": // a client that scribbles on the region
		return corruptPeer(args[0], args[1])
	}
	return fmt.Errorf("unknown role %q", role)
}

// corruptPeer opens a session by hand, maps the offered region itself, and
// publishes an index no honest client could; it prints the shard's answer.
func corruptPeer(addr, how string) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	c := wire.NewConn(nc)
	open, _ := wire.AppendOpen(nil, &wire.OpenRequest{Tenant: "evil", Accel: "sha256", Reuse: true, Shm: true})
	if err := c.W.Frame(wire.Open, open); err != nil {
		return err
	}
	t, p, err := c.R.Next()
	if err != nil || t != wire.OpenOK {
		return fmt.Errorf("open: %v %v", t, err)
	}
	rep, err := wire.DecodeOpenReply(p)
	if err != nil || rep.Region == "" {
		return fmt.Errorf("no region offered: %+v %v", rep, err)
	}
	fd, err := syscall.Open("/dev/shm/"+rep.Region, syscall.O_RDWR, 0)
	if err != nil {
		return err
	}
	ring := 2*64 + 8*rep.RingWords
	mem, err := syscall.Mmap(fd, 0, 2*ring, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return err
	}
	word := func(off int) *uint64 { return (*uint64)(unsafe.Pointer(&mem[off])) }
	if err := c.Bell(); err != nil { // mapped
		return err
	}
	words := uint64(rep.RingWords)
	switch how {
	case "ahead": // more words than the ring holds
		atomic.StoreUint64(word(0), words+5)
	case "backwards": // publish 64 words, then take 32 back
		atomic.StoreUint64(word(0), 64)
		c.Bell()
		time.Sleep(50 * time.Millisecond)
		atomic.StoreUint64(word(0), 32)
	case "read-ahead": // consume results the shard never published
		atomic.StoreUint64(word(ring+64), 1<<40)
		atomic.StoreUint64(word(0), 8)
	}
	c.Bell()
	for {
		t, p, err := c.R.Next()
		if err != nil {
			fmt.Println("closed", err)
			return nil
		}
		if t == wire.Error || t == wire.Done {
			var rep wire.ErrorReply
			wire.Unmarshal(t, p, &rep)
			fmt.Println(t, rep.Code, rep.Message)
			return nil
		}
	}
}

// nopTB lets the peer reuse the test helpers outside a test.
type nopTB struct{ testing.TB }

func (nopTB) Helper()               {}
func (nopTB) Fatal(args ...any)     { panic(fmt.Sprint(args...)) }
func (nopTB) Fatalf(string, ...any) { panic("fatal") }

// TestPeerStreamsEachWay: a client process streams 1 Mi words to this
// process's shard and gets them back, with end of stream, through the rings.
func TestPeerStreamsEachWay(t *testing.T) {
	addr, _, stop := startLoopback(t, 64, nil)
	defer stop()
	cmd, out := peer(t, "stream", addr)
	if got := line(t, out); got != "ok" {
		t.Fatalf("peer: %s", got)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestPeerClientKilled: a client killed mid-stream ends its session on the
// shard with an Error within a second, and leaves no region file.
func TestPeerClientKilled(t *testing.T) {
	addr, s, stop := startLoopback(t, 64, nil)
	defer stop()
	cmd, out := peer(t, "hang", addr)
	if got := line(t, out); got != "streaming" {
		t.Fatalf("peer: %s", got)
	}
	cmd.Process.Kill()
	deadline := time.Now().Add(time.Second)
	for len(s.Sessions()) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("session still live a second after its client died: %+v", s.Sessions())
		}
		time.Sleep(time.Millisecond)
	}
	if st := s.Stats(); st.Kills == 0 {
		t.Fatalf("the dead client's session retired without an error: %+v", st)
	}
	if files := regionFiles(t, os.Getpid()); len(files) != 0 {
		t.Fatalf("region files left: %v", files)
	}
}

// TestPeerShardKilled: a shard killed mid-stream ends the client's session
// with an Error within a second, and leaves no region file.
func TestPeerShardKilled(t *testing.T) {
	cmd, out := peer(t, "shard")
	addr := line(t, out)
	c, err := client.Connect(addr, client.Options{Tenant: "orphan", Accel: "echo"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !client.Attached(c) {
		t.Fatal("the session did not attach")
	}
	in := make([]cohort.Word, 4096)
	buf := make([]cohort.Word, 4096)
	if err := c.Send(in); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecvInto(buf); err != nil {
		t.Fatal(err)
	}
	cmd.Process.Kill()
	ended := make(chan error, 1)
	go func() {
		for {
			if _, err := c.RecvInto(buf); err != nil {
				ended <- err
				return
			}
		}
	}()
	select {
	case err := <-ended:
		if !errors.Is(err, client.ErrKilled) {
			t.Fatalf("session ended with %v, want ErrKilled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("the client's session still live a second after its shard died")
	}
	if err := c.Send(in); err == nil {
		for i := 0; i < 64 && err == nil; i++ { // fills the ring, then finds the session over
			err = c.Send(in)
		}
		if err == nil {
			t.Fatal("Send kept succeeding after the shard died")
		}
	}
	cmd.Wait()
	if files := regionFiles(t, cmd.Process.Pid); len(files) != 0 {
		t.Fatalf("region files left: %v", files)
	}
}

// TestPeerCorruptIndices: a client that publishes an index no honest one
// could — past the ring, backwards, or a read index past the shard's write —
// gets its session ended with an Error; the shard reads nothing outside the
// mapping (it would fault) and keeps serving.
func TestPeerCorruptIndices(t *testing.T) {
	addr, s, stop := startLoopback(t, 64, nil)
	defer stop()
	for _, how := range []string{"ahead", "backwards", "read-ahead"} {
		t.Run(how, func(t *testing.T) {
			_, out := peer(t, "corrupt", addr, how)
			got := line(t, out)
			if !strings.HasPrefix(got, "error "+wire.CodeKilled) || !strings.Contains(got, "shmring") {
				t.Fatalf("shard answered %q, want an Error naming the corrupt ring", got)
			}
		})
	}
	if _, res, err := mustConnect(t, addr).Stream(make([]cohort.Word, 64)); err != nil || res.Blocks != 1 {
		t.Fatalf("the shard stopped serving: %+v %v", res, err)
	}
	if live := len(s.Sessions()); live != 0 {
		t.Fatalf("%d sessions live after the corrupt clients", live)
	}
}

func mustConnect(t *testing.T, addr string) *client.Conn {
	t.Helper()
	c, err := client.Connect(addr, client.Options{Tenant: "after", Accel: "echo"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestFallbackClientCannotMap: a client that cannot map the offered region
// streams the same words in Data frames and gets the same results and
// counters as one that did.
func TestFallbackClientCannotMap(t *testing.T) {
	addr, _, stop := startLoopback(t, 64, nil)
	defer stop()
	run := func() ([]cohort.Word, *wire.DoneReply, bool) {
		c, err := client.Connect(addr, client.Options{Tenant: "fallback", Accel: "sha256"})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		in := make([]cohort.Word, 30_011)
		for i := range in {
			in[i] = cohort.Word(i) ^ 0x5bd1e995
		}
		out, res, err := c.Stream(in)
		if err != nil {
			t.Fatal(err)
		}
		return out, res, client.Attached(c)
	}
	wantOut, wantRes, attached := run()
	if !attached {
		t.Fatal("the reference session did not attach")
	}
	client.DropIdle(addr)
	defer client.SetAttachRegion(func(string, int) (*shmring.Region, error) { return nil, errors.New("cannot map") })()
	out, res, attached := run()
	if attached {
		t.Fatal("the session attached a region it could not map")
	}
	if !reflect.DeepEqual(out, wantOut) || *res != *wantRes {
		t.Fatalf("fallback: %d words, %+v; attached: %d words, %+v", len(out), res, len(wantOut), wantRes)
	}
}

// TestFallbackLargeSend: one Send of more words than a Data frame holds,
// on a connection that could not map its region, goes out in several
// frames, and every word comes back. A failed Send closes the Conn, so the
// receive below ends instead of waiting for words that never come.
func TestFallbackLargeSend(t *testing.T) {
	addr, _, stop := startLoopback(t, 64, nil)
	defer stop()
	defer client.SetAttachRegion(func(string, int) (*shmring.Region, error) { return nil, errors.New("cannot map") })()
	c, err := client.Connect(addr, client.Options{Tenant: "large", Accel: "echo"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if client.Attached(c) {
		t.Fatal("the session attached a region it could not map")
	}
	in := make([]cohort.Word, wire.MaxFrameWords+64)
	for i := range in {
		in[i] = cohort.Word(i)*0x9e3779b97f4a7c15 + 7
	}
	sent := make(chan error, 1)
	go func() {
		err := c.Send(in)
		if err == nil {
			err = c.CloseSend()
		}
		if err != nil {
			c.Close()
		}
		sent <- err
	}()
	out := make([]cohort.Word, 0, len(in))
	buf := make([]cohort.Word, 1<<16)
	for {
		n, err := c.RecvInto(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("after %d words: %v (send: %v)", len(out), err, <-sent)
		}
		out = append(out, buf[:n]...)
	}
	if err := <-sent; err != nil {
		t.Fatalf("Send of %d words: %v", len(in), err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("%d words came back of %d, or altered", len(out), len(in))
	}
}

// TestPeerSaturatedStream: two connections to a shard process each keep
// eight 4096-word sends in flight for a second, as the serve-stream
// workload does, so both sides of each session park and wake each other
// over and over — the sender for room, the receiver for words, one of them
// reading the socket for both. Every op must come back intact, and the
// streams must end: a wake-up that one side consumed while the other slept
// in the socket read leaves both parked, and the watchdog fails the test.
func TestPeerSaturatedStream(t *testing.T) {
	_, out := peer(t, "shard")
	addr := line(t, out)
	const opWords, inflight = 4096, 8
	end := time.Now().Add(time.Second)
	type result struct {
		sent, done int
		err        error
	}
	results := make(chan result, 2)
	for ci := 0; ci < 2; ci++ {
		c, err := client.Connect(addr, client.Options{Tenant: fmt.Sprint("sat", ci), Accel: "echo"})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var ops [4][]cohort.Word
		for k := range ops {
			ops[k] = make([]cohort.Word, opWords)
			for i := range ops[k] {
				ops[k][i] = cohort.Word(ci<<40 | k<<20 | i)
			}
		}
		sent := make(chan int, 1)
		slots := make(chan struct{}, inflight)
		go func() {
			n := 0
			for ; time.Now().Before(end); n++ {
				slots <- struct{}{}
				if c.Send(ops[n%len(ops)]) != nil {
					break
				}
			}
			sent <- n
			c.CloseSend()
		}()
		go func() {
			buf := make([]cohort.Word, opWords)
			r := result{}
			for ; ; r.done++ {
				filled := 0
				for filled < opWords {
					n, err := c.RecvInto(buf[filled:])
					if err != nil {
						if filled > 0 || !errors.Is(err, io.EOF) {
							r.err = err
						}
						r.sent = <-sent
						results <- r
						return
					}
					filled += n
				}
				if !reflect.DeepEqual(buf, ops[r.done%len(ops)]) {
					r.err = fmt.Errorf("op %d came back altered", r.done)
				}
				<-slots
			}
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case r := <-results:
			if r.err != nil || r.done != r.sent {
				t.Fatalf("%d ops sent, %d came back, %v", r.sent, r.done, r.err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a saturated stream stopped: both sides of a session parked")
		}
	}
}
