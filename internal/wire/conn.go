package wire

import (
	"errors"
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

// Conn is one connection with its framing state and its data plane: the
// connection's two shared-memory rings once Attach has run, its Data frames
// otherwise. Its producer (Put) and consumer (Words, Commit) move a session's
// words the same way on either plane, and the consumer files every other
// frame the peer sends (End, CloseSent). addr is the address a Pool dialled
// it at, the key it is kept under between sessions.
type Conn struct {
	net.Conn
	R    *Reader
	W    *Writer
	addr string

	rings *rings // nil while the connection's sessions move Data frames
	// Negotiated is set once the connection has decided its data plane: a
	// serving end offers a region at most once per connection.
	Negotiated bool

	// What the peer sent this session besides words; next clears it.
	closeSent atomic.Bool // the peer's CloseSend has arrived
	// end points at last once the peer's stream has ended: its final frame,
	// a frame with no place in a session's stream, or the connection's read
	// error.
	end  atomic.Pointer[ending]
	last ending
	// pending is the uncommitted tail of the last Data frame read; it
	// aliases R's pooled buffer.
	pending []uint64
}

// NewConn wraps c with a Reader and a Writer.
func NewConn(c net.Conn) *Conn {
	return &Conn{Conn: c, R: NewReader(c), W: NewWriter(c)}
}

// Close closes the connection and releases its rings, if any: the region is
// unmapped once no caller is inside it (Enter).
func (c *Conn) Close() error {
	err := c.Conn.Close()
	if r := c.rings; r != nil {
		r.region.Close()
	}
	return err
}

// next reads the frame that begins a session: the Open at the serving end,
// the reply to it at the dialling end. It clears the last session's records
// and skips the Doorbells that session left behind. The payload is valid
// until the following read.
func (c *Conn) next() (Type, []byte, error) {
	c.end.Store(nil)
	c.closeSent.Store(false)
	c.pending = nil
	for {
		t, p, err := c.R.Next()
		if err != nil || t != Doorbell {
			return t, p, err
		}
	}
}

// bellFrame is a whole Doorbell frame: the type and a zero length.
var bellFrame = [headerBytes]byte{byte(Doorbell)}

// Bell writes a Doorbell frame in one write, so it never splits another
// goroutine's frame: a socket takes each write whole.
func (c *Conn) Bell() error {
	_, err := c.Conn.Write(bellFrame[:])
	return err
}

// rings is a connection's shared-memory data plane (shmring): the region and
// this end's producer and consumer. No goroutine owns the socket: at either
// end a side with nothing to do parks in its read (Put, Words), and a frame
// it reads wakes the other side too.
type rings struct {
	region *shmring.Region
	tx     *shmring.Producer
	rx     *shmring.Consumer

	// room and ready each get a token after every frame a parked side reads:
	// a producer parked for room waits on room, a consumer parked for words
	// on ready. Tokens coalesce, so a woken side looks at its ring again.
	room, ready chan struct{}
	tok         chan struct{} // the right to read the socket
}

// ending is how the peer's stream ended.
type ending struct {
	f   Frame
	err error
}

// Frame is one frame the consumer filed as the end of the peer's stream.
type Frame struct {
	Type    Type
	Payload []byte
}

// Attach makes rg the connection's data plane, with this end producing into
// ring tx and consuming the other. Call it between frames, with nothing else
// reading R.
func (c *Conn) Attach(rg *shmring.Region, tx int) {
	r := &rings{
		region: rg, tx: rg.Producer(tx), rx: rg.Consumer(1 - tx),
		room: make(chan struct{}, 1), ready: make(chan struct{}, 1), tok: make(chan struct{}, 1),
	}
	r.tok <- struct{}{}
	c.rings = r
	c.Negotiated = true
}

// AwaitAttach reads the client's answer to the region offer in its OpenOK
// and unlinks the region. A Doorbell says the client mapped it: the serving
// end attaches it. Any other first frame declines it, and is read as the
// first of the session's stream.
func (c *Conn) AwaitAttach(offer *shmring.Region) {
	t, ws, p, err := c.R.NextData()
	offer.Unlink()
	switch {
	case err == nil && t == Doorbell:
		c.Attach(offer, 1)
		return
	case err == nil && t == Data:
		c.pending = ws
	default:
		c.record(t, p, err)
	}
	offer.Close()
}

// Attached reports whether the connection's sessions move their words
// through shared-memory rings.
func (c *Conn) Attached() bool { return c.rings != nil }

// Enter pins the connection's rings, if any, for a caller about to move
// words, and reports false once Close has run; every true Enter is paired
// with one Exit. Data frames need no pin.
func (c *Conn) Enter() bool { return c.rings == nil || c.rings.region.Enter() }

// Exit ends an Enter.
func (c *Conn) Exit() {
	if c.rings != nil {
		c.rings.region.Exit()
	}
}

// errEnded is a Put that found no room and the peer's stream over.
var errEnded = errors.New("session ended")

// Put sends the leading words of a, then of b, and reports how many went.
//
// On rings it copies those that fit into this end's ring, publishes them
// with one index store, and rings the peer if it is parked for words. On a
// full ring it parks — Arm, a last look, wait — until some fit, and gives up
// once the peer's stream has ended. An error is that end, a corrupt ring, or
// a Doorbell that could not be written.
//
// On Data frames it writes one frame of up to MaxFrameWords words with
// WordsN; an error is the write's.
func (c *Conn) Put(a, b []uint64) (int, error) {
	r := c.rings
	if r == nil {
		n := min(len(a)+len(b), MaxFrameWords)
		if n <= len(a) {
			a, b = a[:n], nil
		} else {
			b = b[:n-len(a)]
		}
		if err := c.W.WordsN(a, b); err != nil {
			return 0, err
		}
		return n, nil
	}
	for {
		n, bell, err := r.tx.Push(a, b)
		if err == nil && bell {
			err = c.Bell()
		}
		if n > 0 || err != nil || len(a)+len(b) == 0 {
			return n, err
		}
		if c.ended() {
			return 0, errEnded
		}
		r.tx.Arm()
		if !r.tx.Room() && !c.ended() {
			c.wait(r.room)
		}
		r.tx.Disarm()
	}
}

// Words returns views of the peer's words this end has not committed yet,
// valid until the Commit that releases them, and waits for some while there
// are none. It returns none once the peer's stream is over: its CloseSend
// has arrived (CloseSent) or its stream has ended (End). On rings that is
// counted only once the ring is drained, since the peer publishes every word
// before it sends the frame; on rings it also parks — Arm, a last look,
// wait — and an error is a corrupt ring. On Data frames it reads the socket
// in the caller's goroutine: only the consumer reads it.
func (c *Conn) Words() (a, b []uint64, err error) {
	r := c.rings
	if r == nil {
		for len(c.pending) == 0 && !c.over() {
			t, ws, p, err := c.R.NextData()
			if err == nil && t == Data {
				c.pending = ws
			} else {
				c.record(t, p, err)
			}
		}
		return c.pending, nil, nil
	}
	for {
		// The end is looked at before the ring: words the peer published
		// before its last frame are then in the ring by the Segments below.
		over := c.over()
		if a, b, err = r.rx.Segments(); err != nil || len(a)+len(b) > 0 || over {
			return a, b, err
		}
		r.rx.Arm()
		if !r.rx.Pending() && !c.ended() {
			c.wait(r.ready)
		}
		r.rx.Disarm()
	}
}

// Commit releases the first n words Words returned. On rings it rings the
// peer if it is parked for room; a Doorbell that cannot be written shows in
// the next read of the socket.
func (c *Conn) Commit(n int) {
	if r := c.rings; r != nil {
		if r.rx.Commit(n) {
			c.Bell()
		}
		return
	}
	if c.pending = c.pending[n:]; len(c.pending) == 0 {
		c.pending = nil
		c.R.release()
	}
}

// wait parks one side — the producer with mine = room, the consumer with
// mine = ready — until a frame may have changed what it waits for. When no
// other side is reading the socket it sleeps in that read itself, so its
// wake-up arrives on the socket it already reads; when the other side is,
// it sleeps on mine, which that side posts after every frame it reads.
func (c *Conn) wait(mine <-chan struct{}) {
	r := c.rings
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
		if !c.ended() { // past the end nothing more is coming
			c.record(c.R.Next())
			// Both sides are posted before the read right goes back.
			for _, ch := range [2]chan struct{}{r.room, r.ready} {
				select {
				case ch <- struct{}{}:
				default: // a token is already waiting: the wake-ups merge
				}
			}
		}
	}
	r.tok <- struct{}{}
}

// record files a frame of the peer's that is not words. A Doorbell is
// absorbed and the peer's first CloseSend is recorded; any other frame — on
// rings a Data frame too — or a read error ends the peer's stream (End).
func (c *Conn) record(t Type, p []byte, err error) {
	switch {
	case err == nil && t == Doorbell:
	case err == nil && t == CloseSend && !c.closeSent.Load():
		c.closeSent.Store(true)
	default:
		// The payload stays in R's scratch: nothing reads R once the end is
		// set, until the next session.
		c.last = ending{Frame{Type: t, Payload: p}, err}
		c.end.Store(&c.last)
	}
}

// End returns how the peer's stream ended — its final frame, or the
// connection's read error — once the consumer has read it; ok is false
// before.
func (c *Conn) End() (f Frame, err error, ok bool) {
	if e := c.end.Load(); e != nil {
		return e.f, e.err, true
	}
	return Frame{}, nil, false
}

// ended reports whether the peer's stream has ended: a producer stops
// waiting for room.
func (c *Conn) ended() bool { return c.end.Load() != nil }

// over reports whether the peer will send no more words this session.
func (c *Conn) over() bool { return c.ended() || c.closeSent.Load() }

// CloseSent reports whether the peer's CloseSend has arrived: the words it
// sent before are readable.
func (c *Conn) CloseSent() bool { return c.closeSent.Load() }

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
