package sched_test

// Connection reuse at the wire level: an Open with the reuse flag keeps its
// connection after a clean Done, every other ending closes it, and Quiesce
// closes idle connections instead of waiting for them.

import (
	"net"
	"testing"
	"time"

	"cohort"
	"cohort/internal/sched"
	"cohort/internal/wire"
)

// startReuseServer is startServer that also hands back the wire server.
func startReuseServer(t *testing.T) (*sched.Server, string) {
	t.Helper()
	s := sched.New(sched.Config{Engines: 1, Quantum: 8, QueueCap: 64})
	sv := sched.NewServer(s, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go sv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	t.Cleanup(func() {
		sv.Close()
		s.Close()
	})
	return sv, ln.Addr().String()
}

// rawConn is a wire-level client: the framing without the client package,
// so a test can set the reuse flag and see exactly what closes when.
type rawConn struct {
	c net.Conn
	r *wire.Reader
	w *wire.Writer
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawConn{c: c, r: wire.NewReader(c), w: wire.NewWriter(c)}
}

// session runs one session: Open, the words, CloseSend, and every frame up
// to the final one, whose type and decoded Done (when it is one) it returns.
func (rc *rawConn) session(t *testing.T, req wire.OpenRequest, in []cohort.Word) (wire.Type, wire.DoneReply) {
	t.Helper()
	open, err := wire.AppendOpen(nil, &req)
	if err != nil || rc.w.Frame(wire.Open, open) != nil {
		t.Fatal("open failed", err)
	}
	typ, p, err := rc.r.Next()
	if err != nil || typ != wire.OpenOK {
		t.Fatalf("open reply = %v %v, want open-ok", typ, err)
	}
	if _, err := wire.DecodeOpenReply(p); err != nil {
		t.Fatal(err)
	}
	if err := rc.w.Words(in); err != nil {
		t.Fatal(err)
	}
	if err := rc.w.Frame(wire.CloseSend, nil); err != nil {
		t.Fatal(err)
	}
	for {
		typ, _, p, err := rc.r.NextData()
		if err != nil {
			t.Fatalf("result stream: %v", err)
		}
		switch typ {
		case wire.Data:
			continue
		case wire.Done:
			var done wire.DoneReply
			if err := wire.Unmarshal(typ, p, &done); err != nil {
				t.Fatal(err)
			}
			return typ, done
		default:
			return typ, wire.DoneReply{}
		}
	}
}

// closed asserts the server has closed the connection: the next read ends.
func (rc *rawConn) closed(t *testing.T) {
	t.Helper()
	if typ, _, err := rc.r.Next(); err == nil {
		t.Fatalf("read a %s frame from a connection that should be closed", typ)
	}
}

// TestServerReusesConnection: clean sessions whose Open asks for reuse run
// one after another on one connection; a session without the flag closes it
// after its Done.
func TestServerReusesConnection(t *testing.T) {
	_, addr := startReuseServer(t)
	rc := dialRaw(t, addr)
	in := []cohort.Word{1, 2, 3, 4}
	for i := 0; i < 3; i++ {
		typ, done := rc.session(t, wire.OpenRequest{Tenant: "leg", Accel: "null", Reuse: true}, in)
		if typ != wire.Done || done.Code != "" || done.Blocks != uint64(len(in)) {
			t.Fatalf("session %d ended %v %+v, want a clean Done", i, typ, done)
		}
	}
	typ, done := rc.session(t, wire.OpenRequest{Tenant: "leg", Accel: "null"}, in)
	if typ != wire.Done || done.Code != "" {
		t.Fatalf("last session ended %v %+v, want a clean Done", typ, done)
	}
	rc.closed(t)
}

// TestServerReuseEndsOnUncleanDone: a Done that carries a Code closes the
// connection even when the Open asked for reuse.
func TestServerReuseEndsOnUncleanDone(t *testing.T) {
	_, addr := startReuseServer(t)
	rc := dialRaw(t, addr)
	typ, done := rc.session(t, wire.OpenRequest{Tenant: "capped", Accel: "null", Quota: 2, Reuse: true},
		make([]cohort.Word, 16))
	if typ != wire.Done || done.Code != wire.CodeQuota {
		t.Fatalf("session ended %v %+v, want a quota Done", typ, done)
	}
	rc.closed(t)
}

// TestServerRejectsMalformedOpen: an Open payload that breaks the binary
// layout — a JSON Open, a trailing byte, a field running past the end — is
// answered with CodeBadRequest.
func TestServerRejectsMalformedOpen(t *testing.T) {
	_, addr := startReuseServer(t)
	valid, err := wire.AppendOpen(nil, &wire.OpenRequest{Tenant: "t", Accel: "null"})
	if err != nil {
		t.Fatal(err)
	}
	overlong := append([]byte(nil), valid...)
	overlong[18] = 200 // the tenant's length byte
	for name, p := range map[string][]byte{
		"json":     []byte(`{"tenant":"t","accel":"null"}`),
		"trailing": append(append([]byte(nil), valid...), 0),
		"overlong": overlong,
	} {
		rc := dialRaw(t, addr)
		if err := rc.w.Frame(wire.Open, p); err != nil {
			t.Fatal(err)
		}
		typ, reply, err := rc.r.Next()
		if err != nil || typ != wire.Error {
			t.Fatalf("%s: reply = %v %v, want error", name, typ, err)
		}
		var er wire.ErrorReply
		if err := wire.Unmarshal(typ, reply, &er); err != nil || er.Code != wire.CodeBadRequest {
			t.Fatalf("%s: error reply %+v %v, want code %q", name, er, err, wire.CodeBadRequest)
		}
		rc.closed(t)
	}
}

// TestQuiesceClosesIdleConnections: a connection idle between sessions
// does not hold a drain: Quiesce closes it and returns true even with an
// hour to wait.
func TestQuiesceClosesIdleConnections(t *testing.T) {
	sv, addr := startReuseServer(t)
	rc := dialRaw(t, addr)
	typ, done := rc.session(t, wire.OpenRequest{Tenant: "leg", Accel: "null", Reuse: true}, []cohort.Word{7})
	if typ != wire.Done || done.Code != "" {
		t.Fatalf("session ended %v %+v, want a clean Done", typ, done)
	}
	quiesced := make(chan bool, 1)
	go func() { quiesced <- sv.Quiesce(time.Hour) }()
	rc.closed(t)
	if !<-quiesced {
		t.Fatal("Quiesce reported handlers still running")
	}
}
