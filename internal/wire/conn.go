package wire

import (
	"fmt"
	"net"
	"sync"
	"time"
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
}

// NewConn wraps c with a Reader and a Writer.
func NewConn(c net.Conn) *Conn {
	return &Conn{Conn: c, R: NewReader(c), W: NewWriter(c)}
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
		// The copy into the Writer's scratch keeps open from escaping, so a
		// caller's Open can live on its stack.
		if werr := c.W.control(Open, append(c.W.buf[:0], open...)); werr != nil {
			err = fmt.Errorf("send open: %w", werr)
		} else if t, reply, rerr := c.R.Next(); rerr != nil {
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
	defer nc.Close()
	c := NewConn(nc)
	for first := true; ; first = false {
		if !first && !s.mark(nc, true, false) {
			return // quiescing: an idle connection closes at once
		}
		t, payload, err := c.R.Next()
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
