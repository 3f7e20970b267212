package sched

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"time"

	"cohort"
	"cohort/internal/shmring"
	"cohort/internal/wire"
)

// AccelFactory builds a fresh accelerator instance for one session. Each
// session needs its own instance because the instance carries the tenant's
// CSR state and reused output buffers.
type AccelFactory func() (cohort.Accelerator, error)

// Catalog maps wire-protocol accelerator names to factories — the set of
// engine types a daemon offers.
type Catalog map[string]AccelFactory

// DefaultCatalog serves the built-in fixed-function accelerators.
func DefaultCatalog() Catalog {
	return Catalog{
		"null":      func() (cohort.Accelerator, error) { return cohort.NewNull(), nil },
		"sha256":    func() (cohort.Accelerator, error) { return cohort.NewSHA256(), nil },
		"aes128":    func() (cohort.Accelerator, error) { return cohort.NewAES128(), nil },
		"aes128dec": func() (cohort.Accelerator, error) { return cohort.NewAES128Decrypt(), nil },
	}
}

// Server exposes a Scheduler over the wire protocol: a TCP connection carries
// one session at a time — one after another while its Opens ask for reuse
// (the client package's do), one in all otherwise. The reader half of each
// session, on the connection's handler goroutine, feeds the session input
// queue (a full queue stops the read — per-tenant backpressure reaches all
// the way back to the remote producer); the writer half, the result pump,
// streams results out as the scheduler completes them and finishes with a
// Done frame carrying the session's counters.
//
// A client on the same host streams through a shared-memory region instead
// (shmring): the connection's first Open that asks for one gets a region in
// its OpenOK, and once the client has mapped it (wire.Conn.AwaitAttach),
// every session on the connection moves its words through the region's two
// rings. The socket then carries control frames and Doorbells only, and a
// half with nothing to move on the ring side parks in the socket read, as
// the client's halves do. Anything that cannot attach — a peer off the
// host, a region that cannot be created, a client that cannot map it —
// streams Data frames. The halves move words the same way on either plane:
// the reader half copies wire.Conn.Words into In (readWords), the pump
// copies Out into wire.Conn.Put.
//
// A client frame with no place in a session's stream — a second Open, or a
// Data frame on rings — ends the session in an Error coded killed that
// names the frame. A Doorbell is absorbed on either plane.
//
// Both halves run the batched wire hot path: inbound Data frames decode into
// pooled word buffers and land in the input queue with one TryPushSlice per
// frame; outbound results coalesce every completed block sitting in the
// output queue into a single Data frame written with one writev straight
// from the queue's ring segments — no allocation and no copy at steady
// state on little-endian hosts. Go enables TCP_NODELAY on every TCP
// connection, so a coalesced frame is never held back by Nagle.
type Server struct {
	sch     *Scheduler
	catalog Catalog

	// Log, when non-nil, receives structured connection-lifecycle records:
	// session admissions (tenant, accel, session id, remote address),
	// admission rejections, and session completion with final counters. Nil
	// disables lifecycle logging; the serve hot path never logs either way.
	Log *slog.Logger

	conns *wire.ConnSet
}

// NewServer wraps sch. A nil catalog means DefaultCatalog.
func NewServer(sch *Scheduler, catalog Catalog) *Server {
	if catalog == nil {
		catalog = DefaultCatalog()
	}
	return &Server{sch: sch, catalog: catalog, conns: wire.NewConnSet(ErrServerClosed)}
}

// ErrServerClosed is returned by Serve after Close, mirroring net/http.
var ErrServerClosed = errors.New("sched: server closed")

// Serve accepts connections on ln until Close. It always returns a non-nil
// error: ErrServerClosed after a clean Close, the accept error otherwise.
func (sv *Server) Serve(ln net.Listener) error { return sv.conns.Serve(ln, sv.serve) }

// Close stops accepting, closes every live connection (their sessions are
// killed), and waits for the handlers to drain. It does not close the
// Scheduler — the owner may front it with several listeners.
func (sv *Server) Close() error { return sv.conns.Close() }

// Quiesce stops accepting and waits up to timeout for in-flight handlers to
// finish on their own (wire.ConnSet.Quiesce), so a drain does not cut off a
// retired session's final Done mid-write. Reports whether all finished.
func (sv *Server) Quiesce(timeout time.Duration) bool { return sv.conns.Quiesce(timeout) }

// serve runs the session one Open asks for. It reports whether the
// connection stays open for the next Open (wire.KeepsConn); every other
// ending closes it.
func (sv *Server) serve(c *wire.Conn, payload []byte) bool {
	var req wire.OpenRequest
	if err := wire.DecodeOpen(payload, &req); err != nil {
		c.W.JSON(wire.Error, wire.ErrorReply{Message: err.Error(), Code: wire.CodeBadRequest})
		return false
	}
	factory, ok := sv.catalog[req.Accel]
	if !ok {
		if sv.Log != nil {
			sv.Log.Warn("session rejected", "tenant", req.Tenant, "accel", req.Accel,
				"remote", c.RemoteAddr().String(), "code", wire.CodeUnknownAccel)
		}
		c.W.JSON(wire.Error, wire.ErrorReply{
			Message: fmt.Sprintf("unknown accelerator %q", req.Accel), Code: wire.CodeUnknownAccel,
		})
		return false
	}
	acc, err := factory()
	if err != nil {
		c.W.JSON(wire.Error, wire.ErrorReply{Message: err.Error(), Code: wire.CodeBadRequest})
		return false
	}
	ss, err := sv.sch.Register(SessionConfig{
		Tenant: req.Tenant, Accel: acc, CSR: req.CSR,
		Weight: req.Weight, Quota: req.Quota, QueueCap: req.QueueCap,
	})
	if err != nil {
		code := wire.CodeBadRequest
		switch {
		case errors.Is(err, ErrTooManySessions):
			code = wire.CodeAdmission
		case errors.Is(err, ErrDraining):
			code = wire.CodeDraining
		case errors.Is(err, ErrClosed):
			code = wire.CodeClosed
		}
		if sv.Log != nil {
			sv.Log.Warn("session rejected", "tenant", req.Tenant, "accel", req.Accel,
				"remote", c.RemoteAddr().String(), "code", code, "err", err)
		}
		c.W.JSON(wire.Error, wire.ErrorReply{Message: err.Error(), Code: code})
		return false
	}
	if sv.Log != nil {
		sv.Log.Info("session open", "session", ss.ID(), "tenant", ss.Tenant(),
			"accel", req.Accel, "weight", ss.weight, "timing", req.Timing,
			"remote", c.RemoteAddr().String())
	}
	rep := wire.OpenReply{Session: ss.ID(), InWords: acc.InWords(), OutWords: acc.OutWords()}
	var offer *shmring.Region
	if req.Shm && !c.Negotiated {
		c.Negotiated = true
		if loopback(c.RemoteAddr()) {
			// A region that cannot be created is no offer: Data frames.
			if rg, err := createRegion(shmring.RingWords); err == nil {
				offer = rg
				rep.Region, rep.RingWords = rg.Name(), rg.Words()
			}
		}
	}
	if err := c.W.OpenOK(rep); err != nil {
		if offer != nil {
			offer.Close()
		}
		ss.Kill()
		return false
	}
	if offer != nil {
		c.AwaitAttach(offer)
	}

	// Result pump. It writes the session's frames, the reader's Doorbells
	// aside, up to the final one, and closes the connection unless the
	// session ends reusable: Done is always the final frame. This goroutine
	// reads the client's stream.
	kept := make(chan bool, 1)
	go func() { kept <- sv.pumpResults(c, ss, req.Timing, req.Reuse) }()
	if !sv.readWords(c, ss) {
		// The producer vanished or broke the protocol mid-stream: discard
		// its session.
		ss.Kill()
	}
	keep := <-kept
	if sv.Log != nil {
		st := ss.Stats()
		args := []any{"session", ss.ID(), "tenant", ss.Tenant(),
			"blocks", st.Blocks, "words_in", st.WordsIn, "words_out", st.WordsOut,
			"remote", c.RemoteAddr().String()}
		if serr := ss.Err(); serr != nil {
			sv.Log.Warn("session closed", append(args, "err", serr)...)
		} else {
			sv.Log.Info("session closed", args...)
		}
	}
	return keep
}

// createRegion makes the region a same-host connection is offered; a test
// swaps it to make creation fail.
var createRegion = shmring.Create

// loopback reports whether a connection's peer is on this host.
func loopback(a net.Addr) bool {
	ta, ok := a.(*net.TCPAddr)
	return ok && ta.IP.IsLoopback()
}

// readWords feeds the client's words (wire.Conn.Words) into the session
// input queue until the client's CloseSend, releasing each run with one
// Commit: on rings one read-index publication, which rings the client when
// it is parked for room; on Data frames the rest of a frame. With no words
// it parks in the socket read. A corrupt ring, a frame with no place in the
// stream, or a dead connection kills the session (killStream). Reports
// whether the client ended its stream deliberately.
func (sv *Server) readWords(c *wire.Conn, ss *Session) bool {
	for {
		a, b, err := c.Words()
		if err != nil {
			killStream(ss, c, err)
			return false
		}
		if len(a)+len(b) == 0 {
			if c.CloseSent() {
				ss.CloseSend()
				return true
			}
			killStream(ss, c, nil)
			return false
		}
		n, ok := sv.feed(ss, a, b)
		if !ok {
			return false
		}
		c.Commit(n)
	}
}

// feed pushes the leading words of a, then of b, that fit into the session
// input queue and reports how many; each push rings the scheduler's bell.
// When the queue is full it parks on the session's InSpace bell — not
// reading the client is exactly how per-tenant backpressure propagates to
// the remote producer. It gives up once the session is retired (quota,
// kill): the remaining stream has nowhere to go.
func (sv *Server) feed(ss *Session, a, b []cohort.Word) (int, bool) {
	in, room := ss.In(), ss.InSpace()
	for {
		// Latency attribution: stamp the head of the waiting batch (first
		// push since the last dispatch wins; one atomic load otherwise). The
		// stamp lands before the push, because the push wakes the worker
		// that consumes it.
		ss.markIngress()
		n := in.TryPushSlice(a)
		if n == len(a) {
			n += in.TryPushSlice(b)
		}
		if n > 0 {
			return n, true
		}
		room.Arm()
		if in.Len() < in.Cap() { // last look: room freed since the push
			room.Disarm()
			continue
		}
		select {
		case <-ss.Done():
			room.Disarm()
			return 0, false
		case <-sv.sch.stop:
			room.Disarm()
			return 0, false
		case <-room.C():
		}
		room.Disarm()
	}
}

// killStream kills a session for err — a corrupt ring, or results that
// could not be sent — so it ends in an Error saying so. Once the client's
// stream has ended (wire.Conn.End), the end says why instead: a frame with
// no place in the stream, or a lost connection, which needs no reason.
func killStream(ss *Session, c *wire.Conn, err error) {
	if f, rerr, ended := c.End(); ended {
		err = nil
		if rerr == nil {
			err = fmt.Errorf("unexpected %s frame mid-stream", f.Type)
		}
	}
	if err != nil {
		ss.fail(fmt.Errorf("%w: %v", ErrKilled, err))
	}
	ss.Kill()
}

// pumpResults streams the session output queue to the client with
// wire.Conn.Put — into the shard's ring, or as Data frames — then sends the
// final frame (see finish) and closes the connection, unless wire.KeepsConn
// keeps it, in which case pumpResults reports true. The output queue is
// closed by the scheduler at retirement, so draining it is the handler's
// retirement barrier.
//
// Every pass moves all completed blocks currently in the queue: into the
// ring with one index publication (Put parks in the socket read while the
// ring is full), or up to a whole frame, wire.MaxFrameWords, as one Data
// frame written with a single writev directly from the queue's two ring
// segments: the engine's batched index publication, applied to the socket.
// On Data frames, the pass that finds Out closed with every word left in
// one frame's reach writes those words and the Done together.
func (sv *Server) pumpResults(c *wire.Conn, ss *Session, timing, reuse bool) bool {
	out, ready := ss.Out(), ss.OutReady()
	for {
		// Closed is loaded before the segments: nothing is published after
		// Close, so a pass that sees Out closed also sees every word left.
		closed := out.Closed()
		a, b := out.ReadSegments()
		n := len(a) + len(b)
		if closed && (n == 0 || !c.Attached() && n <= wire.MaxFrameWords) {
			return sv.finish(c, ss, a, b, timing, reuse)
		}
		if n == 0 {
			// Empty but not closed: park until the scheduler publishes or
			// closes Out. Rings coalesce, so every wakeup re-scans the queue.
			ready.Arm()
			if out.Len() == 0 && !out.Closed() { // last look
				select {
				case <-sv.sch.stop:
					// No final frame follows: close the socket, so a reader
					// half parked in its read returns as well.
					ready.Disarm()
					c.Conn.Close()
					return false
				case <-ready.C():
				}
			}
			ready.Disarm()
			continue
		}
		if k, err := c.Put(a, b); err == nil {
			n = k
		} else {
			// The client corrupted its ring or is gone: the results are
			// undeliverable, and the session ends in an Error.
			killStream(ss, c, err)
		}
		// Draining output may unblock a session parked on output-room
		// backpressure: the read publication rings the scheduler's bell.
		out.CommitRead(n)
		// The words reached the kernel or the ring: close the wire stage for
		// a sampled quantum whose results they carried (no-op when unstamped).
		ss.observeWire()
	}
}

// finish writes the session's final frame, after the words a and b that
// were left in its closed output queue: a Done shares one writev with them
// (wire.Writer.WordsDone), an Error follows them. It reports whether the
// connection stays open for the next Open (wire.KeepsConn), and closes it
// otherwise.
func (sv *Server) finish(c *wire.Conn, ss *Session, a, b []cohort.Word, timing, reuse bool) bool {
	n := len(a) + len(b)
	if n > 0 {
		// These words are the last a sampled quantum can have stamped: close
		// its wire stage as their write starts, so Done.Timing counts it.
		ss.observeWire()
	}
	t, payload, keep := finalFrame(ss, timing, reuse)
	var err error
	switch {
	case n == 0:
		err = c.W.Frame(t, payload)
	case t == wire.Done:
		err = c.W.WordsDone(payload, a, b)
	default:
		if err = c.W.WordsN(a, b); err == nil {
			err = c.W.Frame(t, payload)
		}
	}
	ss.Out().CommitRead(n)
	if err == nil && keep {
		return true
	}
	// Closing here, not when the handler returns, makes the final frame
	// reliably the last thing the client sees even while the reader half is
	// still parked in a read. The socket only: the reader half may still be
	// copying out of the rings, which go when the handler returns.
	c.Conn.Close()
	return false
}

// finalFrame encodes a retired session's final frame. A session that died
// mid-stream (kill, accelerator fault) ends in an Error, so the client
// surfaces a typed error instead of a truncated-looking stream. Any other
// ends in a Done with its counters, why it ended short if it did
// (quota, shutdown), and its whole-life timing when the Open asked for
// it. keep is wire.KeepsConn: whether the frame leaves the connection open.
// The reader closes the input queue when it consumes the client's
// CloseSend, and nothing else closes it.
func finalFrame(ss *Session, timing, reuse bool) (t wire.Type, payload []byte, keep bool) {
	serr := ss.Err()
	if serr != nil && (errors.Is(serr, ErrKilled) || retireCode(serr) == wire.CodeFault) {
		// Plain structs: Marshal cannot fail.
		payload, _ = json.Marshal(wire.ErrorReply{Message: serr.Error(), Code: retireCode(serr)})
		return wire.Error, payload, false
	}
	st := ss.Stats()
	done := wire.DoneReply{
		Blocks: st.Blocks, WordsIn: st.WordsIn, WordsOut: st.WordsOut,
		DroppedWords: st.DroppedWords,
	}
	if serr != nil {
		done.Err = serr.Error()
		done.Code = retireCode(serr)
	}
	if timing {
		tel := ss.Telemetry()
		done.Timing = &tel
	}
	payload, _ = json.Marshal(done)
	return wire.Done, payload, wire.KeepsConn(reuse, ss.in.Closed(), &done)
}

// retireCode maps a session's terminal error to its wire code.
func retireCode(err error) string {
	switch {
	case errors.Is(err, ErrQuotaExceeded):
		return wire.CodeQuota
	case errors.Is(err, ErrClosed):
		return wire.CodeClosed
	case errors.Is(err, ErrKilled):
		return wire.CodeKilled
	default:
		return wire.CodeFault
	}
}
