// Package client is the tenant-side library for cohortd: dial the daemon,
// open one accelerator session, stream words in, stream results out. It is
// the remote twin of holding a Fifo pair on a local Engine. On the daemon's
// own host the twin is close: the connection's first session maps a
// shared-memory region the daemon offers, and every session on the
// connection moves its words through the region's two rings, with only
// control frames and doorbells on the socket (shmring). Elsewhere, or when
// the region cannot be mapped, the words travel in the wire protocol's Data
// frames (cohort/internal/wire). Send and the receive side work the same on
// either plane: the connection (wire.Conn) knows which one it uses.
//
// Connect takes the address of a shard or of a gateway. A gateway answers
// the Open with a Redirect naming the tenant's candidate shards in ring
// order; Connect sends the same Open to each in turn until one admits the
// session, so the session's words travel between the client and the shard
// alone. A candidate that is draining, admission-full or undialable passes
// the Open to the next one; any other refusal ends the walk.
//
// A Conn carries exactly one session. Its TCP connection outlives it when
// the session ends cleanly — CloseSend sent, results read up to a Done with
// no Code — and Close then keeps the connection for the next Connect to the
// same address, which sends its Open on it instead of dialling. Any other
// ending closes the connection. The connection to a gateway is kept after
// each Redirect. The typical small-job shape:
//
//	c, err := client.Connect(addr, client.Options{Tenant: "me", Accel: "sha256"})
//	out, res, err := c.Stream(words)   // concurrent send + receive
//	c.Close()
//
// For long streams, call Send/Recv from two goroutines yourself (Stream does
// exactly that); a single goroutine alternating big Sends with no Recvs can
// deadlock once every buffer between the two ends fills — the daemon stops
// reading a session's socket, or its ring, when its input queue is full,
// which is the per-tenant backpressure design working as intended. On the
// same host those buffers are the two rings and the session's queues, far
// smaller than a pair of loopback socket buffers.
package client

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"cohort"
	"cohort/internal/shmring"
	"cohort/internal/wire"
)

// Options parameterizes the session carried by one connection. Accel names
// an entry in the daemon's catalog ("sha256", "aes128", ...); the remaining
// fields mirror sched.SessionConfig.
type Options struct {
	Tenant   string
	Accel    string
	CSR      []byte
	Weight   int
	Quota    uint64
	QueueCap int
	// DialTimeout bounds the TCP connect (default 5s).
	DialTimeout time.Duration
	// Reconnect, when > 0, retries Connect up to that many additional times
	// after a retryable failure — a dial error (daemon restarting) or an
	// admission-control rejection (ErrAdmission; capacity frees as other
	// sessions retire). Deliberate rejections (unknown accelerator, bad CSR)
	// are never retried.
	Reconnect int
	// ReconnectBackoff is the pause before the first reconnect attempt,
	// doubling per attempt (default 50ms).
	ReconnectBackoff time.Duration
	// ReconnectMax caps the doubling backoff (default 2s).
	ReconnectMax time.Duration
	// ServerTiming asks the daemon for its server-side latency attribution:
	// the session's whole-life sampled stage breakdown (queue wait, scheduler
	// dispatch, compute, wire egress) arrives on its Done. Read it with
	// Conn.LastServerTiming; subtracting the server-resident time from an
	// end-to-end measurement isolates network + client-side cost. Off by
	// default.
	ServerTiming bool
}

// ErrRejected wraps the daemon's refusal to open the session (admission
// control, unknown accelerator, bad CSR). Inspect with errors.Is and read
// the daemon's message with errors.Unwrap / Error.
var ErrRejected = errors.New("cohort client: session rejected")

// ErrAdmission is the typed form of an admission-control rejection: the
// daemon is at MaxSessions. It wraps ErrRejected (errors.Is matches both) and
// is the one rejection worth retrying — Options.Reconnect does so
// automatically.
var ErrAdmission = errors.New("cohort client: admission control full")

// ErrDraining is the typed form of a drain-mode rejection: the daemon is
// draining for a rolling restart — it admits nothing new but is still
// flushing in-flight sessions. It wraps ErrRejected (errors.Is matches both)
// and, unlike ErrAdmission, there is nothing to wait for: the right move is
// to go to another shard immediately, so Options.Reconnect retries it with
// no pause and no backoff doubling (through a gateway, the next attempt
// lands elsewhere once the gateway sees the drain). Through a gateway it
// surfaces only when every candidate refused.
var ErrDraining = errors.New("cohort client: daemon draining")

// ErrKilled: the session ended mid-stream without its final frame — the
// daemon tore it down (operator kill, dead peer verdict), or the connection
// to it was lost (the shard died). Results already received are valid; the
// stream is incomplete, and replaying its residual input on a fresh session
// is the failover.
var ErrKilled = errors.New("cohort client: session killed")

// ErrFault: the session's accelerator failed terminally mid-stream and the
// scheduler contained the failure to this session. Results already received
// are valid unless the fault corrupted data silently — checksum at the
// application layer.
var ErrFault = errors.New("cohort client: accelerator fault")

// Conn is one open session. Send/CloseSend may run concurrently with Recv,
// RecvInto (one goroutine each side); no method may be called concurrently
// with itself or, on the same side, with each other. Close may run from any
// goroutine, more than once.
type Conn struct {
	wc      *wire.Conn
	session uint64
	inW     int
	outW    int

	// closeSent is set once CloseSend has reached the connection; Send and
	// CloseSend refuse after it, so a kept connection is never written by a
	// session that no longer owns it.
	closeSent atomic.Bool
	closed    atomic.Bool

	// result is the session's Done, set once the receive side has read it;
	// atomic because Close may read it from another goroutine. recvErr is
	// what the receive side returns from then on, io.EOF after a clean Done.
	result  atomic.Pointer[wire.DoneReply]
	recvErr error
}

// Connect dials the daemon and opens a session, retrying retryable failures
// per Options.Reconnect with a doubling backoff. A non-nil error means no
// session exists and nothing need be closed.
func Connect(addr string, opts Options) (*Conn, error) {
	if opts.Accel == "" {
		return nil, errors.New("cohort client: Options.Accel is required")
	}
	c, err := connect(addr, opts)
	if err == nil || opts.Reconnect <= 0 {
		return c, err
	}
	pause := opts.ReconnectBackoff
	if pause <= 0 {
		pause = 50 * time.Millisecond
	}
	maxPause := opts.ReconnectMax
	if maxPause <= 0 {
		maxPause = 2 * time.Second
	}
	for attempt := 0; attempt < opts.Reconnect && reconnectable(err); attempt++ {
		if !errors.Is(err, ErrDraining) {
			// ErrDraining retries immediately and leaves the backoff untouched:
			// waiting cannot help a shard that has stopped admitting, and the
			// next attempt goes to a different shard through a routing tier.
			time.Sleep(pause)
			if pause *= 2; pause > maxPause {
				pause = maxPause
			}
		}
		if c, err = connect(addr, opts); err == nil {
			return c, nil
		}
	}
	return nil, err
}

// reconnectable reports whether a Connect failure is worth retrying: dial
// errors, admission-control rejections, and drain-mode rejections are;
// deliberate rejections (unknown accelerator, bad CSR) are final.
func reconnectable(err error) bool {
	if errors.Is(err, ErrAdmission) || errors.Is(err, ErrDraining) {
		return true
	}
	return !errors.Is(err, ErrRejected)
}

// idle keeps the connections between sessions, per address (wire.Pool). It
// is package-level because Connect is a function.
var idle wire.Pool

// connect opens one session through addr. When addr answers with a
// Redirect, connect walks its candidates: a routing refusal (draining,
// admission-full) or a failed dial moves to the next, any other refusal
// ends the walk, and a candidate that redirects again is refused, so
// redirects never chain.
func connect(addr string, opts Options) (*Conn, error) {
	timeout := opts.DialTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	req := wire.OpenRequest{
		Tenant: opts.Tenant, Accel: opts.Accel, CSR: opts.CSR,
		Weight: opts.Weight, Quota: opts.Quota, QueueCap: opts.QueueCap,
		Timing: opts.ServerTiming, Reuse: true, Shm: shmring.Supported,
	}
	var buf [64]byte // the Open's scratch: a typical Open encodes on the stack
	open, err := wire.AppendOpen(buf[:0], &req)
	if err != nil {
		// The daemon would refuse it as a bad request; no retry can help.
		return nil, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	var cands [2]string // a gateway names 2 candidates unless told otherwise
	c, redirect, err := openAt(addr, timeout, open, cands[:0])
	if c != nil || err != nil {
		return c, err
	}
	for _, cand := range redirect {
		var again []string
		if c, again, err = openAt(cand, timeout, open, nil); again != nil {
			return nil, fmt.Errorf("%w: %s redirected again; a redirect must name shards", ErrRejected, cand)
		}
		if err == nil || (errors.Is(err, ErrRejected) && !errors.Is(err, ErrDraining) && !errors.Is(err, ErrAdmission)) {
			return c, err
		}
	}
	return nil, err
}

// openAt sends the Open on a connection to addr (wire.Pool.Open: an idle one
// when there is one, else a fresh dial) and reads the answer: a session, or
// a Redirect's candidates appended to redirect, with the connection kept
// for the next Open. Any other answer is an error and closes the
// connection.
func openAt(addr string, timeout time.Duration, open []byte, redirect []string) (*Conn, []string, error) {
	wc, t, payload, err := idle.Open(addr, timeout, open)
	if err != nil {
		return nil, nil, fmt.Errorf("cohort client: %w", err)
	}
	switch t {
	case wire.OpenOK:
		rep, err := wire.DecodeOpenReply(payload)
		if err == nil && rep.Region != "" {
			err = attach(wc, rep)
		}
		if err == nil {
			return &Conn{wc: wc, session: rep.Session, inW: rep.InWords, outW: rep.OutWords}, nil, nil
		}
		wc.Close()
		return nil, nil, err
	case wire.Redirect:
		redirect, err := wire.DecodeRedirect(payload, redirect)
		if err != nil {
			wc.Close()
			return nil, nil, fmt.Errorf("cohort client: %w", err)
		}
		idle.Put(wc)
		return nil, redirect, nil
	}
	// Any other reply ends the connection; payload stays readable.
	wc.Close()
	if t != wire.Error {
		return nil, nil, fmt.Errorf("cohort client: unexpected %s frame before open reply", t)
	}
	var rej wire.ErrorReply
	if err := wire.Unmarshal(t, payload, &rej); err != nil {
		return nil, nil, err
	}
	switch rej.Code {
	case wire.CodeAdmission:
		return nil, nil, fmt.Errorf("%w (%w): %s", ErrAdmission, ErrRejected, rej.Message)
	case wire.CodeDraining:
		return nil, nil, fmt.Errorf("%w (%w): %s", ErrDraining, ErrRejected, rej.Message)
	}
	return nil, nil, fmt.Errorf("%w: %s", ErrRejected, rej.Message)
}

// attach maps the region an OpenOK offers and answers the offer with a
// Doorbell. A region that cannot be mapped is declined by answering
// nothing: the session's words then go in Data frames, which tells the
// shard so.
func attach(wc *wire.Conn, rep wire.OpenReply) error {
	if wc.Negotiated {
		return fmt.Errorf("cohort client: a second region offered on one connection")
	}
	wc.Negotiated = true
	rg, err := attachRegion(rep.Region, rep.RingWords)
	if err != nil {
		return nil
	}
	wc.Attach(rg, 0)
	if err := wc.Bell(); err != nil {
		return fmt.Errorf("cohort client: answer region offer: %w", err)
	}
	return nil
}

// attachRegion maps an offered region; a test swaps it to make mapping fail.
var attachRegion = shmring.Attach

// errConnClosed is a Send or receive on a Conn that Close has ended.
var errConnClosed = errors.New("cohort client: connection closed")

// Session returns the daemon-assigned session id.
func (c *Conn) Session() uint64 { return c.session }

// InWords returns the accelerator's input block size in words.
func (c *Conn) InWords() int { return c.inW }

// OutWords returns the accelerator's output block size in words.
func (c *Conn) OutWords() int { return c.outW }

// Send streams ws to the daemon (wire.Conn.Put): through the connection's
// ring, parking while it is full, or in Data frames of up to
// wire.MaxFrameWords words. Words need not align to blocks per call; the
// daemon assembles blocks across Sends. ws is not retained — the caller may
// reuse it as soon as Send returns; on little-endian hosts a Data frame
// hands it to the kernel zero-copy (header and payload in one writev).
// Batching many blocks per Send is the single biggest lever on serving
// throughput: one frame and one syscall, or one ring publication, amortize
// over every block in the slice.
func (c *Conn) Send(ws []cohort.Word) error {
	if c.closeSent.Load() {
		return errSendClosed
	}
	if !c.wc.Enter() {
		return errConnClosed
	}
	defer c.wc.Exit()
	for {
		n, err := c.wc.Put(ws, nil)
		if err != nil {
			return fmt.Errorf("cohort client: send data: %w", err)
		}
		if ws = ws[n:]; len(ws) == 0 {
			return nil
		}
	}
}

// CloseSend ends the outbound stream: the daemon finishes every complete
// block already sent, drops a trailing partial block, and replies with the
// remaining results and a final Done. Call exactly once, after the last
// Send.
func (c *Conn) CloseSend() error {
	if c.closeSent.Load() {
		return errSendClosed
	}
	if err := c.wc.W.Frame(wire.CloseSend, nil); err != nil {
		return fmt.Errorf("cohort client: close send: %w", err)
	}
	c.closeSent.Store(true)
	return nil
}

// errSendClosed is a Send or CloseSend after CloseSend.
var errSendClosed = errors.New("cohort client: send after CloseSend")

// final takes a frame that ends the result stream — a Done, an Error, or
// one that has no place in it — and returns what the receive side reports
// from then on: io.EOF after a clean Done.
func (c *Conn) final(t wire.Type, payload []byte) error {
	switch t {
	case wire.Done:
		var done wire.DoneReply
		if err := wire.Unmarshal(t, payload, &done); err != nil {
			return err
		}
		c.result.Store(&done)
		if done.Err != "" {
			return fmt.Errorf("cohort client: session ended: %s", done.Err)
		}
		return io.EOF
	case wire.Error:
		// The session died mid-stream; the server said why instead of just
		// resetting the connection. Map the code to a typed error.
		var rej wire.ErrorReply
		if err := wire.Unmarshal(t, payload, &rej); err != nil {
			return err
		}
		switch rej.Code {
		case wire.CodeKilled:
			return fmt.Errorf("%w: %s", ErrKilled, rej.Message)
		case wire.CodeFault:
			return fmt.Errorf("%w: %s", ErrFault, rej.Message)
		}
		return fmt.Errorf("cohort client: session ended: %s", rej.Message)
	}
	return fmt.Errorf("cohort client: unexpected %s frame in result stream", t)
}

// words waits for result words (wire.Conn.Words) and returns them as up to
// two views, valid until the Commit that releases them. The session's final
// frame, or the connection's end, counts only once every result word before
// it is read, and is what every later call returns: so a kept connection
// never carries a result word into the next session. The caller has entered
// the connection.
func (c *Conn) words() (a, b []cohort.Word, err error) {
	if c.recvErr != nil {
		return nil, nil, c.recvErr
	}
	a, b, err = c.wc.Words()
	switch f, lost, ended := c.wc.End(); {
	case err != nil:
		err = fmt.Errorf("%w: %v", ErrKilled, err)
	case len(a)+len(b) > 0:
		return a, b, nil
	case lost != nil && c.closed.Load():
		err = fmt.Errorf("cohort client: recv: %w", lost)
	case lost != nil:
		// The far end went before its final frame: the session is as dead
		// as a killed one, and a replay is the way on.
		err = fmt.Errorf("%w: connection lost before the final frame: %v", ErrKilled, lost)
	case ended:
		err = c.final(f.Type, f.Payload)
	default: // the peer's CloseSend
		err = c.final(wire.CloseSend, nil)
	}
	c.recvErr = err
	return nil, nil, err
}

// Recv returns the next chunk of result words. It returns io.EOF once the
// stream is complete — after which Result holds the session's final
// counters. The returned slice is owned by the caller. Hot loops that can
// reuse a buffer should prefer RecvInto, which skips this method's per-chunk
// allocation.
func (c *Conn) Recv() ([]cohort.Word, error) {
	if !c.wc.Enter() {
		return nil, errConnClosed
	}
	defer c.wc.Exit()
	a, b, err := c.words()
	if err != nil {
		return nil, err
	}
	out := append(append(make([]cohort.Word, 0, len(a)+len(b)), a...), b...)
	c.wc.Commit(len(out))
	return out, nil
}

// RecvInto fills buf with the next result words and returns how many were
// written — the zero-allocation receive: words copy once, out of the ring or
// a pooled frame buffer, into buf, and what does not fit carries over to the
// next call. Returns io.EOF exactly like Recv. buf must not be empty.
func (c *Conn) RecvInto(buf []cohort.Word) (int, error) {
	if len(buf) == 0 {
		return 0, errors.New("cohort client: RecvInto with empty buffer")
	}
	if !c.wc.Enter() {
		return 0, errConnClosed
	}
	defer c.wc.Exit()
	a, b, err := c.words()
	if err != nil {
		return 0, err
	}
	n := copy(buf, a)
	n += copy(buf[n:], b)
	c.wc.Commit(n)
	return n, nil
}

// Result returns the daemon's final session counters. Nil until Recv has
// returned io.EOF (or a session-ended error).
func (c *Conn) Result() *wire.DoneReply { return c.result.Load() }

// LastServerTiming returns the session's whole-life server-side stage
// breakdown, Result().Timing: nil until the Done has been read, and nil
// after it unless the session was opened with Options.ServerTiming. Safe to
// call from any goroutine.
func (c *Conn) LastServerTiming() *wire.TelemetryReply {
	if r := c.Result(); r != nil {
		return r.Timing
	}
	return nil
}

// Stream runs a whole job: sends in (concurrently), closes the outbound
// stream, and collects every result word until the daemon's Done. It is the
// one-call path for jobs whose output fits in memory.
func (c *Conn) Stream(in []cohort.Word) ([]cohort.Word, *wire.DoneReply, error) {
	sendErr := make(chan error, 1)
	go func() {
		// Chunked so neither end needs a frame buffer proportional to the job.
		const chunk = 4096
		for len(in) > 0 {
			n := len(in)
			if n > chunk {
				n = chunk
			}
			if err := c.Send(in[:n]); err != nil {
				sendErr <- err
				return
			}
			in = in[n:]
		}
		sendErr <- c.CloseSend()
	}()
	var out []cohort.Word
	var recvErr error
	buf := make([]cohort.Word, 4096)
	for {
		n, err := c.RecvInto(buf)
		if err != nil {
			if err != io.EOF {
				recvErr = err
			}
			break
		}
		out = append(out, buf[:n]...)
	}
	// The send goroutine cannot still be blocked: the daemon has sent Done,
	// so its reader consumed (or discarded) everything we wrote.
	if err := <-sendErr; err != nil && recvErr == nil {
		recvErr = err
	}
	return out, c.result.Load(), recvErr
}

// Close ends the Conn. A session that ended cleanly — CloseSend sent and its
// results read up to a Done with no Code — leaves its connection open for
// the next Connect to the same address. Any other ending closes the
// connection: an Error, a kill, a Done with a Code, results left unread, or
// no CloseSend, in which case the daemon kills the session on disconnect.
// Calls after the first do nothing.
func (c *Conn) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	if wire.KeepsConn(true, c.closeSent.Load(), c.result.Load()) {
		idle.Put(c.wc)
		return nil
	}
	return c.wc.Close()
}
