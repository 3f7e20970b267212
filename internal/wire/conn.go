package wire

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cohort/internal/shmring"
)

// KeepsConn is the kept-connection rule both ends of a session apply when it
// ends: the connection stays open for the next Open only if the session's
// Open set the reuse flag, the client's CloseSend went through, and the
// final frame was a Done with no Code. done is nil when the final frame was
// anything else or was never read.
//
// A Redirect ends no session, so its rule is the reuse flag alone: the
// gateway keeps the connection after a Redirect when the Open set the flag,
// and the client, which always sets it, keeps it too. An Error from a
// gateway closes the connection, as an Error does on every hop.
func KeepsConn(reuse, closeSent bool, done *DoneReply) bool {
	return reuse && closeSent && done != nil && done.Code == ""
}

// Conn is one connection with its framing state. addr is the address a Pool
// dialled it at, the key it is kept under between sessions.
type Conn struct {
	net.Conn
	R    *Reader
	W    *Writer
	addr string

	// Rings is the connection's shared-memory data plane once Attach has
	// run, nil while its sessions move words in Data frames.
	Rings *Rings
	// Negotiated is set once the connection has decided its data plane: a
	// serving end offers a region at most once per connection.
	Negotiated bool
}

// NewConn wraps c with a Reader and a Writer.
func NewConn(c net.Conn) *Conn {
	return &Conn{Conn: c, R: NewReader(c), W: NewWriter(c)}
}

// Close closes the connection and releases its rings, if any: it returns
// once the frame reader has stopped, and the region is unmapped once no
// session is inside it (shmring.Region.Enter).
func (c *Conn) Close() error {
	err := c.Conn.Close()
	if r := c.Rings; r != nil && r.closed.CompareAndSwap(false, true) {
		close(r.done)
		<-r.stopped
		r.Region.Close()
	}
	return err
}

// next reads the connection's next frame: from the frame reader once the
// rings are attached, which keeps Doorbells to itself, and from R before.
// The payload is valid until the following next.
func (c *Conn) next() (Type, []byte, error) {
	if r := c.Rings; r != nil {
		if r.frames != nil {
			f, ok := <-r.frames
			if !ok {
				return 0, nil, r.err
			}
			return f.Type, f.Payload, nil
		}
	}
	return c.R.Next()
}

// bellFrame is a whole Doorbell frame: the type and a zero length.
var bellFrame = [headerBytes]byte{byte(Doorbell)}

// Bell writes a Doorbell frame in one write, so it never splits another
// goroutine's frame: a socket takes each write whole.
func (c *Conn) Bell() error {
	_, err := c.Conn.Write(bellFrame[:])
	return err
}

// Rings is a connection's shared-memory data plane (shmring): the region,
// this end's producer and consumer, and how a parked side learns of its
// peer's Doorbells. The serving end runs a frame reader that owns R for the
// connection's life — between sessions too, so a Doorbell that arrives
// after a session ended is absorbed and not mistaken for the next Open. The
// dialling end has no reader: a parked side reads the socket itself (Wait).
type Rings struct {
	Region *shmring.Region
	Tx     *shmring.Producer
	Rx     *shmring.Consumer
	// Room and Ready each get a token on every Doorbell, and when a
	// session's final frame or the connection's end arrives: a producer
	// parked for room waits on Room, a consumer parked for words on Ready.
	// Tokens coalesce, so a woken side looks at its ring again.
	Room, Ready chan struct{}

	frames  chan Frame             // the frame reader's frames (serving end)
	err     error                  // why the connection ended, once frames is closed
	tok     chan struct{}          // the right to read the socket (dialling end)
	ended   atomic.Bool            // a final frame or the connection's end has arrived
	telem   atomic.Pointer[[]byte] // the latest Telemetry payload, not yet taken
	bufs    [2][]byte              // frame payloads, handed out in turn
	closed  atomic.Bool
	done    chan struct{} // closed by Conn.Close: the frame reader stops
	stopped chan struct{} // closed by the frame reader as it returns

	// end is the session's final frame, or the connection's read error,
	// once a parked side has read it (dialling end).
	mu  sync.Mutex
	end struct {
		set bool
		f   Frame
		err error
	}
}

// Frame is one frame the frame reader hands over.
type Frame struct {
	Type    Type
	Payload []byte
}

// Attach makes rg the connection's data plane, with this end producing into
// ring tx and consuming the other. With reader set it starts the frame
// reader (a serving end, whose parked side waits on in-process bells too);
// without it the sides read the socket themselves through Wait (a dialling
// end). Call it between frames, with nothing else reading R.
func (c *Conn) Attach(rg *shmring.Region, tx int, reader bool) {
	r := &Rings{
		Region: rg, Tx: rg.Producer(tx), Rx: rg.Consumer(1 - tx),
		Room: make(chan struct{}, 1), Ready: make(chan struct{}, 1),
		done: make(chan struct{}), stopped: make(chan struct{}),
	}
	c.Rings = r
	c.Negotiated = true
	if reader {
		r.frames = make(chan Frame)
		go c.readFrames(r)
		return
	}
	r.tok = make(chan struct{}, 1)
	r.tok <- struct{}{}
	close(r.stopped)
}

// Wait parks one side of a dialling end's session — the producer with
// mine = Room, the consumer with mine = Ready — until a Doorbell, the
// session's final frame or the connection's end may have changed what it
// waits for. When no other side is reading the socket it sleeps in that
// read itself, so its wake-up arrives on the socket it already reads; when
// the other side is, it sleeps on mine, which that side posts after every
// frame it reads. Call it after Arm and a last look at the ring.
func (c *Conn) Wait(mine <-chan struct{}) {
	r := c.Rings
	select {
	case <-mine:
		return
	case <-r.tok:
	}
	select {
	case <-mine:
		// The other side read a frame for this one before it let go of the
		// socket: reading now could wait for a wake-up already delivered.
	default:
		if !r.ended.Load() { // past the final frame nothing more is coming
			c.readOne(r)
		}
	}
	r.tok <- struct{}{}
}

// readOne reads one frame for Wait. A Telemetry payload is kept, latest
// only; a final frame, a frame with no place in the stream, or a read
// error is kept for the consumer (End). Every frame posts both sides.
func (c *Conn) readOne(r *Rings) {
	t, p, err := c.R.Next()
	switch {
	case err == nil && t == Doorbell:
	case err == nil && t == Telemetry:
		cp := append([]byte(nil), p...)
		r.telem.Store(&cp)
	default:
		// The payload stays in R's scratch: nothing reads R again until the
		// consumer has taken it, since Wait reads no further once ended is set.
		r.mu.Lock()
		r.end.set, r.end.f, r.end.err = true, Frame{Type: t, Payload: p}, err
		r.mu.Unlock()
		r.ended.Store(true)
	}
	r.post()
}

// End returns the session's final frame, or the connection's read error,
// once a parked side of a dialling end has read it; ok is false before.
// It stays until the next session's Open.
func (r *Rings) End() (f Frame, err error, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.end.f, r.end.err, r.end.set
}

// Frames returns a serving end's frames other than Doorbells, in order; it
// is closed once the connection has ended. A frame's payload is valid until
// the next frame is received, from here or from the connection's own reads
// between sessions.
func (r *Rings) Frames() <-chan Frame { return r.frames }

// Ended reports whether the current session's final frame, or the
// connection's end, has arrived: a producer stops waiting for room.
func (r *Rings) Ended() bool { return r.ended.Load() }

// TakeTelemetry returns the latest Telemetry payload not yet taken, or nil.
func (r *Rings) TakeTelemetry() []byte {
	if p := r.telem.Swap(nil); p != nil {
		return *p
	}
	return nil
}

// post leaves a token on both wake-up channels.
func (r *Rings) post() {
	for _, ch := range [2]chan struct{}{r.Room, r.Ready} {
		select {
		case ch <- struct{}{}:
		default: // a token is already waiting: the wake-ups merge
		}
	}
}

// readFrames is the attached connection's one reader. A Doorbell wakes both
// parked sides; a Telemetry payload is kept, latest only, so a receiver
// that is not receiving never holds up a Doorbell; every other frame goes
// to Frames. A read error closes Frames without waiting for anyone to take
// it, so a kept connection's reader never outlives the connection. The
// payloads alternate between two buffers, so the frame handed out last
// stays intact while the next one is read.
func (c *Conn) readFrames(r *Rings) {
	defer close(r.stopped)
	defer close(r.frames)
	for turn := 0; ; {
		t, p, err := c.R.Next()
		switch {
		case err != nil:
			r.err = err
			r.ended.Store(true)
			r.post()
			return
		case t == Doorbell:
			r.post()
			continue
		case t == Telemetry:
			cp := append([]byte(nil), p...)
			r.telem.Store(&cp)
			r.post()
			continue
		case t == Done || t == Error:
			r.ended.Store(true)
			r.post()
		}
		b := append(r.bufs[turn][:0], p...)
		if cap(b) <= maxRetain {
			r.bufs[turn] = b
		}
		turn ^= 1
		select {
		case r.frames <- Frame{Type: t, Payload: b}:
		case <-r.done:
			return
		}
	}
}

// Pool holds, per address, the connections between sessions, newest last;
// the zero Pool is ready to use. It needs no cap: a connection is dialled
// only when its address's stack is empty, so a stack never holds more
// connections than its owner once had sessions open there at the same time.
// One whose far end has gone stays until the next Open finds it dead.
type Pool struct {
	mu   sync.Mutex
	idle map[string][]*Conn
}

// Pop takes the newest idle connection to addr, or returns nil.
func (p *Pool) Pop(addr string) *Conn {
	p.mu.Lock()
	cs := p.idle[addr]
	if len(cs) == 0 {
		p.mu.Unlock()
		return nil
	}
	c := cs[len(cs)-1]
	cs[len(cs)-1] = nil
	p.idle[addr] = cs[:len(cs)-1]
	p.mu.Unlock()
	return c
}

// Put keeps c for the next Open to its address.
func (p *Pool) Put(c *Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.idle == nil {
		p.idle = make(map[string][]*Conn)
	}
	p.idle[c.addr] = append(p.idle[c.addr], c)
}

// Open sends the Open payload open on a connection to addr and reads the
// reply, which is valid until the connection's next read. It takes an idle
// connection first. One that fails before the reply — the far end closed
// it, restarted or quiesced — is closed and addr dialled once more inside
// the call: that is not a failed attempt. A fresh connection that fails
// returns its error. open must be a valid Open payload that already
// carries the reuse flag (AppendOpen made it from a request with Reuse).
func (p *Pool) Open(addr string, timeout time.Duration, open []byte) (*Conn, Type, []byte, error) {
	c := p.Pop(addr)
	for {
		kept := c != nil
		if !kept {
			nc, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, 0, nil, fmt.Errorf("dial %s: %w", addr, err)
			}
			c = NewConn(nc)
			c.addr = addr
		}
		var err error
		if r := c.Rings; r != nil { // the previous session's final frame is read
			r.ended.Store(false)
			r.mu.Lock()
			r.end.set = false
			r.mu.Unlock()
		}
		// The copy into the Writer's scratch keeps open from escaping, so a
		// caller's Open can live on its stack.
		if werr := c.W.control(Open, append(c.W.buf[:0], open...)); werr != nil {
			err = fmt.Errorf("send open: %w", werr)
		} else if t, reply, rerr := c.next(); rerr != nil {
			err = fmt.Errorf("await open reply: %w", rerr)
		} else {
			return c, t, reply, nil
		}
		c.Close()
		if !kept {
			return nil, 0, nil, err
		}
		c = nil
	}
}

// ConnSet is the serving end of every hop: it accepts connections, runs
// their sessions, tracks them, and closes them on Close or Quiesce.
type ConnSet struct {
	closedErr error
	wg        sync.WaitGroup

	mu     sync.Mutex
	closed bool
	ln     net.Listener
	conns  map[net.Conn]bool // tracked connections; true while idle between sessions
}

// NewConnSet returns an empty set whose Serve reports closedErr once it is
// closed.
func NewConnSet(closedErr error) *ConnSet {
	return &ConnSet{closedErr: closedErr, conns: make(map[net.Conn]bool)}
}

// Serve accepts connections on ln until Close or Quiesce and runs each on
// its own goroutine: it reads an Open, calls session with it, and reads the
// next Open while session reports the connection kept. Anything but an
// Open ends the connection. Serve returns the set's closed error after
// Close or Quiesce, the accept error otherwise.
func (s *ConnSet) Serve(ln net.Listener, session func(c *Conn, open []byte) bool) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return s.closedErr
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err == nil && s.mark(nc, false, true) {
			go s.handle(nc, session)
			continue
		}
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if !closed {
			return err
		}
		if err == nil {
			nc.Close() // accepted as the set closed
		}
		return s.closedErr
	}
}

// handle runs one accepted connection's sessions, one after another.
func (s *ConnSet) handle(nc net.Conn, session func(c *Conn, open []byte) bool) {
	defer s.wg.Done()
	defer s.forget(nc)
	c := NewConn(nc)
	defer c.Close()
	for first := true; ; first = false {
		if !first && !s.mark(nc, true, false) {
			return // quiescing: an idle connection closes at once
		}
		t, payload, err := c.next()
		if err != nil || t != Open {
			return // a half-open probe, or the peer left: not worth an Error frame
		}
		if !first && !s.mark(nc, false, false) {
			return // Quiesce closed the idle connection under this Open
		}
		if !session(c, payload) {
			return
		}
	}
}

// mark records whether c sits idle between sessions, and with handler set
// counts the goroutine that serves it. Once the set is closed it records
// nothing and reports false: the caller then closes c instead.
func (s *ConnSet) mark(c net.Conn, idle, handler bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = idle
	if handler {
		s.wg.Add(1)
	}
	return true
}

// forget removes c from the set.
func (s *ConnSet) forget(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Close stops accepting, closes every tracked connection, and waits for the
// handlers to return.
func (s *ConnSet) Close() error {
	var err error
	if ln := s.shut(false); ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// Quiesce stops accepting and waits up to timeout for the handlers to
// return on their own. It closes every connection idle between sessions, at
// once or when it goes idle, and no other: one that never opened a session
// is left for Close. Reports whether every handler returned.
func (s *ConnSet) Quiesce(timeout time.Duration) bool {
	if ln := s.shut(true); ln != nil {
		ln.Close()
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// shut marks the set closed, closes its tracked connections — only the idle
// ones when idleOnly is set — and hands back the listener for the caller to
// close, once: a Close after Quiesce must not close it again.
func (s *ConnSet) shut(idleOnly bool) net.Listener {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for c, idle := range s.conns {
		if idle || !idleOnly {
			c.Close()
		}
	}
	ln := s.ln
	s.ln = nil
	return ln
}
