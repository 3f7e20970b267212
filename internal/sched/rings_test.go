package sched_test

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cohort"
	"cohort/client"
	"cohort/internal/sched"
	"cohort/internal/shmring"
	"cohort/internal/wire"
)

// frameLog records the frames a connection carries, per direction, by
// parsing the byte stream as it passes: the counting net.Conn of the cost
// ledger.
type frameLog struct {
	mu   sync.Mutex
	in   []wire.Type // client to shard
	out  []wire.Type // shard to client
	scan [2]frameScan
}

// frameScan parses one direction's stream.
type frameScan struct {
	hdr  []byte
	left int // payload bytes still to skip
}

func (s *frameScan) feed(p []byte, got func(wire.Type)) {
	for len(p) > 0 {
		if s.left > 0 {
			n := min(s.left, len(p))
			s.left -= n
			p = p[n:]
			continue
		}
		need := 5 - len(s.hdr)
		n := min(need, len(p))
		s.hdr = append(s.hdr, p[:n]...)
		p = p[n:]
		if len(s.hdr) == 5 {
			got(wire.Type(s.hdr[0]))
			s.left = int(binary.BigEndian.Uint32(s.hdr[1:]))
			s.hdr = s.hdr[:0]
		}
	}
}

func (l *frameLog) count(dir []wire.Type, t wire.Type) int {
	n := 0
	for _, x := range dir {
		if x == t {
			n++
		}
	}
	return n
}

func (l *frameLog) snapshot() (in, out []wire.Type) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]wire.Type(nil), l.in...), append([]wire.Type(nil), l.out...)
}

// loggedListener wraps each accepted connection in a frame log; remote,
// when set, is the peer address the shard sees.
type loggedListener struct {
	net.Listener
	log    *frameLog
	remote net.Addr
}

func (l *loggedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &loggedConn{Conn: c, log: l.log, remote: l.remote}, nil
}

type loggedConn struct {
	net.Conn
	log    *frameLog
	remote net.Addr
}

func (c *loggedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.log.mu.Lock()
	c.log.scan[0].feed(p[:n], func(t wire.Type) { c.log.in = append(c.log.in, t) })
	c.log.mu.Unlock()
	return n, err
}

func (c *loggedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.log.mu.Lock()
	c.log.scan[1].feed(p[:n], func(t wire.Type) { c.log.out = append(c.log.out, t) })
	c.log.mu.Unlock()
	return n, err
}

func (c *loggedConn) RemoteAddr() net.Addr {
	if c.remote != nil {
		return c.remote
	}
	return c.Conn.RemoteAddr()
}

// startLogged serves a fresh scheduler on a loopback listener whose
// connections log their frames.
func startLogged(t *testing.T, remote net.Addr) (*sched.Scheduler, string, *frameLog) {
	t.Helper()
	s := sched.New(sched.Config{Engines: 1, Quantum: 64, QueueCap: 16384})
	sv := sched.NewServer(s, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	log := &frameLog{}
	go sv.Serve(&loggedListener{Listener: ln, log: log, remote: remote}) //nolint:errcheck // ErrServerClosed
	t.Cleanup(func() {
		sv.Close()
		s.Close()
	})
	return s, ln.Addr().String(), log
}

// sessionResult is what a client can see of one session.
type sessionResult struct {
	out                                     []cohort.Word
	blocks, wordsIn, wordsOut, droppedWords uint64
}

// streamSHA runs one sha256 session over words, a whole number of blocks
// plus three stray words the shard drops, and returns what came back.
func streamSHA(t *testing.T, addr string, words int) sessionResult {
	t.Helper()
	c, err := client.Connect(addr, client.Options{Tenant: "rings", Accel: "sha256"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	in := make([]cohort.Word, words+3)
	for i := range in {
		in[i] = cohort.Word(i)*0x9e3779b97f4a7c15 + 1
	}
	out, res, err := c.Stream(in)
	if err != nil || res == nil {
		t.Fatalf("stream: %+v %v", res, err)
	}
	return sessionResult{out, res.Blocks, res.WordsIn, res.WordsOut, res.DroppedWords}
}

// TestRingSessionCarriesNoData is the cost ledger's Data-frame row. A
// same-host session streams a MiB through the rings: no Data frame either
// way, only the Open, OpenOK, Doorbells, the CloseSend and the Done. The
// same MiB over a connection that could not attach — the shard's region
// creation fails — carries one Data frame per Send (32 per MiB in 32 KiB
// Sends) and its results in Data frames back.
func TestRingSessionCarriesNoData(t *testing.T) {
	const mib = 1 << 17 // words
	t.Run("attached", func(t *testing.T) {
		_, addr, log := startLogged(t, nil)
		streamSHA(t, addr, mib)
		in, out := log.snapshot()
		allowed := map[wire.Type]bool{wire.Open: true, wire.OpenOK: true, wire.Doorbell: true, wire.CloseSend: true, wire.Done: true}
		for _, ty := range append(in, out...) {
			if !allowed[ty] {
				t.Fatalf("an attached session carried a %s frame (in %v, out %v)", ty, in, out)
			}
		}
		t.Logf("1 MiB through the rings: %d frames in, %d out, %d and %d of them Doorbells",
			len(in), len(out), log.count(in, wire.Doorbell), log.count(out, wire.Doorbell))
	})
	t.Run("fallback", func(t *testing.T) {
		defer sched.SetCreateRegion(func(int) (*shmring.Region, error) { return nil, errors.New("no region") })()
		_, addr, log := startLogged(t, nil)
		streamSHA(t, addr, mib)
		waitFrames(t, log, wire.Done)
		in, out := log.snapshot()
		// Stream sends 4096-word chunks: 32 for the MiB, one more for the
		// three stray words.
		if n := log.count(in, wire.Data); n != 33 {
			t.Fatalf("the fallback session sent %d Data frames, want 33 (in %v)", n, in)
		}
		if n := log.count(out, wire.Data); n == 0 {
			t.Fatal("the fallback session's results came back in no Data frame")
		}
	})
}

// TestRingSessionNeverParked: a session whose words fit the rings, and
// whose client reads nothing until the shard has retired it, never parks the
// client, so the shard sends it the OpenOK and the Done and nothing else.
// The client sends the Open, the Doorbell that says it mapped the region, at
// most one Doorbell for the shard parked on its first words, and the
// CloseSend.
func TestRingSessionNeverParked(t *testing.T) {
	s, addr, log := startLogged(t, nil)
	c, err := client.Connect(addr, client.Options{Tenant: "still", Accel: "sha256"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	in := make([]cohort.Word, 1024)
	if err := c.Send(in); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseSend(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(s.Sessions()) == 0 })
	buf := make([]cohort.Word, 4096)
	got := 0
	for {
		n, err := c.RecvInto(buf)
		if err != nil {
			break
		}
		got += n
	}
	if res := c.Result(); res == nil || got != 1024/2 {
		t.Fatalf("got %d words and %+v, want 512 words and a Done", got, res)
	}
	waitFrames(t, log, wire.Done)
	fromClient, fromShard := log.snapshot()
	if want := []wire.Type{wire.OpenOK, wire.Done}; !reflect.DeepEqual(fromShard, want) {
		t.Fatalf("the shard sent %v, want %v", fromShard, want)
	}
	bells := log.count(fromClient, wire.Doorbell)
	if len(fromClient) != 2+bells || fromClient[0] != wire.Open || fromClient[len(fromClient)-1] != wire.CloseSend || bells < 1 || bells > 2 {
		t.Fatalf("the client sent %v, want the Open, one or two Doorbells and the CloseSend", fromClient)
	}
}

// fallbackExact runs the same sha256 session twice — on a shard whose
// connections attach, and then, after force, on one whose connections (with
// remote as the peer address it sees) cannot — and checks that the second
// streamed Data frames and got the same results and counters.
func fallbackExact(t *testing.T, remote net.Addr, force func() (undo func())) {
	t.Helper()
	const words = 20_000
	_, addr, log := startLogged(t, nil)
	want := streamSHA(t, addr, words)
	if in, _ := log.snapshot(); log.count(in, wire.Data) != 0 {
		t.Fatal("the reference session did not attach")
	}
	defer force()()
	_, addr, log = startLogged(t, remote)
	got := streamSHA(t, addr, words)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback session: %d words, counters %+v; attached: %d words, counters %+v",
			len(got.out), got, len(want.out), want)
	}
	if in, _ := log.snapshot(); log.count(in, wire.Data) == 0 || log.count(in, wire.Doorbell) != 0 {
		t.Fatalf("fallback session frames in: %v", in)
	}
}

// TestRingFallbackCreateFails: a shard that cannot create a region offers
// none, and the session streams Data frames with the same results and
// counters as an attached one.
func TestRingFallbackCreateFails(t *testing.T) {
	fallbackExact(t, nil, func() func() {
		return sched.SetCreateRegion(func(int) (*shmring.Region, error) { return nil, errors.New("no region") })
	})
}

// TestRingFallbackOffHost: a peer that is not on the shard's host is
// offered no region, and its session streams Data frames with the same
// results and counters as an attached one.
func TestRingFallbackOffHost(t *testing.T) {
	fallbackExact(t, &net.TCPAddr{IP: net.IPv4(192, 0, 2, 1), Port: 7411}, func() func() { return func() {} })
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// waitFrames waits for the shard to have written a frame of type ty.
func waitFrames(t *testing.T, log *frameLog, ty wire.Type) {
	t.Helper()
	waitFor(t, func() bool { _, out := log.snapshot(); return log.count(out, ty) > 0 })
}

// ringDial opens a null session by hand on a fresh connection to addr, maps
// the offered region and answers the offer, as client.Connect does, so a
// test can then send what no client would.
func ringDial(t *testing.T, addr string) (*wire.Conn, []byte) {
	t.Helper()
	c, open := dialByHand(t, addr)
	if !c.Attached() {
		t.Fatal("the shard offered no region")
	}
	return c, open
}

// dialByHand is ringDial on a shard that may offer no region: the session
// then streams Data frames.
func dialByHand(t *testing.T, addr string) (*wire.Conn, []byte) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second)) // a lost frame fails, not hangs
	c := wire.NewConn(nc)
	t.Cleanup(func() { c.Close() })
	open, err := wire.AppendOpen(nil, &wire.OpenRequest{Tenant: "byhand", Accel: "null", Reuse: true, Shm: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := ringOpen(t, c, open)
	if rep.Region == "" {
		return c, open
	}
	rg, err := shmring.Attach(rep.Region, rep.RingWords)
	if err != nil {
		t.Fatal(err)
	}
	c.Attach(rg, 0)
	if err := c.Bell(); err != nil { // mapped
		t.Fatal(err)
	}
	return c, open
}

// ringOpen sends open on c and returns the shard's OpenOK.
func ringOpen(t *testing.T, c *wire.Conn, open []byte) wire.OpenReply {
	t.Helper()
	if err := c.W.Frame(wire.Open, open); err != nil {
		t.Fatal(err)
	}
	ty, p, err := c.R.Next()
	if err != nil || ty != wire.OpenOK {
		t.Fatalf("open answered %v %v, want an OpenOK", ty, err)
	}
	rep, err := wire.DecodeOpenReply(p)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// readFinal reads c's frames up to the session's final one and returns it.
func readFinal(t *testing.T, c *wire.Conn) (wire.Type, []byte) {
	t.Helper()
	for {
		ty, p, err := c.R.Next()
		if err != nil {
			t.Fatalf("no final frame: %v", err)
		}
		if ty == wire.Done || ty == wire.Error {
			return ty, p
		}
	}
}

// TestRingSessionUnexpectedFrame: a session's client that sends, mid
// stream, a frame with no place in it — a Data frame on rings, or a second
// Open on either plane — gets an Error coded killed that names the frame,
// and the shard retires the session. A header of the retired type 7 is
// refused as a read error: an Error coded killed too, with no frame to
// name. A Doorbell mid-stream is absorbed on either plane, and the session
// ends in a Done. The frames- cases run on a connection the shard offered
// no region.
func TestRingSessionUnexpectedFrame(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ty    wire.Type
		rings bool
	}{
		{"data", wire.Data, true},
		{"open", wire.Open, true},
		{"doorbell", wire.Doorbell, true},
		{"telemetry", 7, true},
		{"frames-open", wire.Open, false},
		{"frames-doorbell", wire.Doorbell, false},
		{"frames-telemetry", 7, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.rings {
				defer sched.SetCreateRegion(func(int) (*shmring.Region, error) { return nil, errors.New("no region") })()
			}
			s, addr, _ := startLogged(t, nil)
			c, open := dialByHand(t, addr)
			if c.Attached() != tc.rings {
				t.Fatalf("attached = %v, want %v", c.Attached(), tc.rings)
			}
			if n, err := c.Put(make([]cohort.Word, 64), nil); n != 64 || err != nil {
				t.Fatalf("Put = %d, %v", n, err)
			}
			var payload []byte
			switch tc.ty {
			case wire.Data:
				payload = make([]byte, 8*wire.WordBytes)
			case wire.Open:
				payload = open
			}
			if err := c.W.Frame(tc.ty, payload); err != nil {
				t.Fatal(err)
			}
			if tc.ty == wire.Doorbell {
				if err := c.W.Frame(wire.CloseSend, nil); err != nil {
					t.Fatal(err)
				}
				got, p := readFinal(t, c)
				var done wire.DoneReply
				if got != wire.Done || wire.Unmarshal(got, p, &done) != nil || done.WordsIn != 64 {
					t.Fatalf("the shard answered %v %s, want a Done for the 64 words", got, p)
				}
				return
			}
			got, p := readFinal(t, c)
			var rej wire.ErrorReply
			if got != wire.Error || wire.Unmarshal(got, p, &rej) != nil || rej.Code != wire.CodeKilled ||
				tc.ty != 7 && !strings.Contains(rej.Message, tc.ty.String()) {
				t.Fatalf("the shard answered %v %+v, want an Error coded %s naming the %s frame", got, rej, wire.CodeKilled, tc.ty)
			}
			waitFor(t, func() bool { return len(s.Sessions()) == 0 })
			if st := s.Stats(); st.Kills != 1 {
				t.Fatalf("%d sessions killed, want 1", st.Kills)
			}
		})
	}
}

// TestRingDoorbellBetweenSessions: a Doorbell the client writes after a
// session's Done, on the kept ring connection, is absorbed, and the next
// Open on that connection is served through the same rings.
func TestRingDoorbellBetweenSessions(t *testing.T) {
	_, addr, log := startLogged(t, nil)
	c, open := ringDial(t, addr)
	if err := c.W.Frame(wire.CloseSend, nil); err != nil {
		t.Fatal(err)
	}
	if ty, p := readFinal(t, c); ty != wire.Done {
		t.Fatalf("the first session ended in %v %s", ty, p)
	}
	if err := c.Bell(); err != nil {
		t.Fatal(err)
	}
	if rep := ringOpen(t, c, open); rep.Region != "" {
		t.Fatalf("a second region offered on one connection: %+v", rep)
	}
	in := []cohort.Word{3, 1, 4, 1, 5, 9, 2, 6}
	if n, err := c.Put(in, nil); n != len(in) || err != nil {
		t.Fatalf("Put = %d, %v", n, err)
	}
	if err := c.W.Frame(wire.CloseSend, nil); err != nil {
		t.Fatal(err)
	}
	ty, p := readFinal(t, c)
	var done wire.DoneReply
	if ty != wire.Done || wire.Unmarshal(ty, p, &done) != nil || done.Blocks != uint64(len(in)) {
		t.Fatalf("the second session ended in %v %s, want a Done for %d blocks", ty, p, len(in))
	}
	a, b, err := c.Words()
	if got := append(append([]cohort.Word(nil), a...), b...); err != nil || !reflect.DeepEqual(got, in) {
		t.Fatalf("the second session's results: %v %v, want %v", got, err, in)
	}
	if in, _ := log.snapshot(); log.count(in, wire.Open) != 2 || log.count(in, wire.Data) != 0 {
		t.Fatalf("the client sent %v, want two Opens and no Data frame", in)
	}
}

// TestRingSessionSchedulerStop: a ring session whose scheduler stops while
// both of the shard's halves are parked — the pump for results, the reader
// in the socket read for words — ends the client's session at once instead
// of leaving the connection open with nothing on either side.
func TestRingSessionSchedulerStop(t *testing.T) {
	s, addr, _ := startLogged(t, nil)
	c, err := client.Connect(addr, client.Options{Tenant: "stopped", Accel: "sha256"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(make([]cohort.Word, 64)); err != nil {
		t.Fatal(err)
	}
	buf := make([]cohort.Word, 64)
	for got := 0; got < 32; {
		n, err := c.RecvInto(buf)
		if err != nil {
			t.Fatal(err)
		}
		got += n
	}
	s.Close()
	ended := make(chan error, 1)
	go func() {
		_, err := c.RecvInto(buf)
		ended <- err
	}()
	select {
	case err := <-ended:
		if err == nil || err == io.EOF {
			t.Fatalf("the session went on after its scheduler stopped: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the client's session still open 5 s after the shard's scheduler stopped")
	}
}
