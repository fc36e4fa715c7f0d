package webserver

import (
	"context"
	"io"
	"net"
	"os"
	"sync"
	"syscall"
	"time"
)

// The synthetic web travels over in-memory connection pairs instead of
// loopback sockets. A dial builds a pair, hands the server end to a
// memListener that an http.Server serves, and returns the client end.
// Each end is a net.Conn with TCP's observable behaviour: addresses,
// deadlines, EOF after a close, "connection reset by peer" after an
// abort, and a refused dial once the listener is closed.

// loopback is the address both ends of every pair report.
var loopback = net.IPv4(127, 0, 0, 1)

// freeBufs keeps drained pipe buffers for reuse. A pipe holds a buffer
// only while written bytes wait to be read, so an idle keep-alive
// connection holds none. Most waits are short messages (a ClientHello,
// a request, a handshake flight), so buffers start small and grow by
// append. Unlike a sync.Pool, the list survives garbage collection,
// which would otherwise reallocate the buffers in flight after every
// cycle. Its 128 slots cover the ~90 buffers a two-worker study has in
// flight at once; it retains at most cap(freeBufs)*maxFreeBuf bytes.
var freeBufs = make(chan *[]byte, 128)

// maxFreeBuf is the largest buffer kept for reuse; a larger one, grown
// by a reader that fell far behind, is left to the collector.
const maxFreeBuf = 32 << 10

func getBuf() *[]byte {
	select {
	case b := <-freeBufs:
		return b
	default:
		b := make([]byte, 0, 4<<10)
		return &b
	}
}

func putBuf(b *[]byte) {
	if cap(*b) > maxFreeBuf {
		return
	}
	*b = (*b)[:0]
	select {
	case freeBufs <- b:
	default:
	}
}

// pipe carries bytes one way, from a writing end to a reading end.
// Writes never block: they append to the buffer and wake the reader.
type pipe struct {
	mu   sync.Mutex
	cond sync.Cond // on mu; broadcast whenever a reader should look again

	buf *[]byte // unread bytes are (*buf)[off:]; nil when drained
	off int

	// werr is what the reader gets once the buffer drains: io.EOF after
	// the writer closed, ECONNRESET after it aborted. nil while open.
	werr error
	// rerr is what the writer gets once the reader is gone: EPIPE after
	// the reader closed, ECONNRESET after it aborted. nil while open.
	rerr error

	rdeadline, wdeadline time.Time
	timer                *time.Timer // wakes a reader waiting on rdeadline
}

func (p *pipe) init() { p.cond.L = &p.mu }

func (p *pipe) wake() {
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// release gives the buffer back for reuse. Callers hold mu.
func (p *pipe) release() {
	if p.buf != nil {
		putBuf(p.buf)
		p.buf, p.off = nil, 0
	}
}

// closeWrite ends the writer's side; the reader gets err after draining.
func (p *pipe) closeWrite(err error) {
	p.mu.Lock()
	if p.werr == nil {
		p.werr = err
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// closeRead ends the reader's side: unread bytes are dropped and later
// writes fail with err.
func (p *pipe) closeRead(err error) {
	p.mu.Lock()
	if p.rerr == nil {
		p.rerr = err
	}
	p.release()
	if p.timer != nil {
		p.timer.Stop()
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

func expired(deadline time.Time) bool {
	return !deadline.IsZero() && !time.Now().Before(deadline)
}

func (p *pipe) read(c *memConn, b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		switch {
		case p.rerr != nil:
			return 0, c.opError("read", net.ErrClosed)
		case expired(p.rdeadline):
			return 0, c.opError("read", os.ErrDeadlineExceeded)
		case p.buf != nil:
			n := copy(b, (*p.buf)[p.off:])
			if p.off += n; p.off == len(*p.buf) {
				p.release()
			}
			return n, nil
		case p.werr == io.EOF:
			return 0, io.EOF
		case p.werr != nil:
			return 0, c.opError("read", p.werr)
		case len(b) == 0:
			return 0, nil
		}
		// A timer left armed after the wait only wakes the readers
		// spuriously; closeRead stops it.
		if !p.rdeadline.IsZero() {
			if p.timer == nil {
				p.timer = time.AfterFunc(time.Until(p.rdeadline), p.wake)
			} else {
				p.timer.Reset(time.Until(p.rdeadline))
			}
		}
		p.cond.Wait()
	}
}

func (p *pipe) write(c *memConn, b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.werr != nil:
		return 0, c.opError("write", net.ErrClosed)
	case expired(p.wdeadline):
		return 0, c.opError("write", os.ErrDeadlineExceeded)
	case p.rerr != nil:
		return 0, c.opError("write", p.rerr)
	case len(b) == 0:
		return 0, nil
	}
	if p.buf == nil {
		p.buf = getBuf()
	}
	*p.buf = append(*p.buf, b...)
	p.cond.Broadcast()
	return len(b), nil
}

func (p *pipe) setReadDeadline(t time.Time) {
	p.mu.Lock()
	p.rdeadline = t
	p.cond.Broadcast() // a blocked reader re-arms against the new deadline
	p.mu.Unlock()
}

func (p *pipe) setWriteDeadline(t time.Time) {
	p.mu.Lock()
	p.wdeadline = t
	p.mu.Unlock()
}

// memConn is one end of an in-memory connection pair.
type memConn struct {
	in, out       *pipe // in carries bytes to this end, out from it
	local, remote net.Addr
}

// connPair holds both ends and both directions in one allocation.
type connPair struct {
	toServer, toClient pipe
	client, server     memConn
}

func newConnPair(clientAddr, serverAddr net.Addr) (client, server *memConn) {
	p := &connPair{}
	p.toServer.init()
	p.toClient.init()
	p.client = memConn{in: &p.toClient, out: &p.toServer, local: clientAddr, remote: serverAddr}
	p.server = memConn{in: &p.toServer, out: &p.toClient, local: serverAddr, remote: clientAddr}
	return &p.client, &p.server
}

func (c *memConn) opError(op string, err error) error {
	return &net.OpError{Op: op, Net: "tcp", Source: c.local, Addr: c.remote, Err: err}
}

func (c *memConn) Read(b []byte) (int, error)  { return c.in.read(c, b) }
func (c *memConn) Write(b []byte) (int, error) { return c.out.write(c, b) }

// Close closes both directions: the peer reads EOF once it has drained
// what this end wrote, and its later writes fail with a broken pipe.
func (c *memConn) Close() error {
	c.in.closeRead(syscall.EPIPE)
	c.out.closeWrite(io.EOF)
	return nil
}

// reset aborts the connection the way a TCP RST does: the peer reads
// what was already written, then "connection reset by peer".
func (c *memConn) reset() {
	c.in.closeRead(syscall.ECONNRESET)
	c.out.closeWrite(syscall.ECONNRESET)
}

func (c *memConn) LocalAddr() net.Addr  { return c.local }
func (c *memConn) RemoteAddr() net.Addr { return c.remote }

func (c *memConn) SetDeadline(t time.Time) error {
	c.in.setReadDeadline(t)
	c.out.setWriteDeadline(t)
	return nil
}

func (c *memConn) SetReadDeadline(t time.Time) error {
	c.in.setReadDeadline(t)
	return nil
}

func (c *memConn) SetWriteDeadline(t time.Time) error {
	c.out.setWriteDeadline(t)
	return nil
}

// memListener accepts the server ends of in-memory pairs. A dial hands
// its server end over an unbuffered channel, so every conn a dial
// returns was accepted first, and after Close no dial can succeed.
type memListener struct {
	addr  *net.TCPAddr
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newMemListener(port int) *memListener {
	return &memListener{
		addr:  &net.TCPAddr{IP: loopback, Port: port},
		conns: make(chan net.Conn),
		done:  make(chan struct{}),
	}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, &net.OpError{Op: "accept", Net: "tcp", Addr: l.addr, Err: net.ErrClosed}
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *memListener) Addr() net.Addr { return l.addr }

// dial connects a new pair whose client end reports local as its
// address. It fails like a refused connection once the listener is
// closed.
func (l *memListener) dial(ctx context.Context, local *net.TCPAddr) (net.Conn, error) {
	client, server := newConnPair(local, l.addr)
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		return nil, &net.OpError{Op: "dial", Net: "tcp", Source: local, Addr: l.addr,
			Err: os.NewSyscallError("connect", syscall.ECONNREFUSED)}
	case <-ctx.Done():
		return nil, &net.OpError{Op: "dial", Net: "tcp", Source: local, Addr: l.addr, Err: ctx.Err()}
	}
}
