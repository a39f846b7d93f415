package gossip

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rumor/internal/obs"
)

// memnet is an in-memory network: listeners by name whose conns are
// net.Pipe ends. Nothing opens a socket, and every wait on it — an
// accept, a read, a deadline — is a channel or a timer, so inside a
// testing/synctest bubble a trial runs on the bubble's clock and
// replays exactly.
type memnet struct {
	mu  sync.Mutex
	lns map[string]*pipeListener
}

func newMemnet() *memnet { return &memnet{lns: make(map[string]*pipeListener)} }

// listen opens the listener named addr. A name is free again once its
// listener closes, so a node can restart at its old address.
func (m *memnet) listen(addr string) *faultListener {
	l := &pipeListener{m: m, addr: memAddr(addr), conns: make(chan net.Conn), done: make(chan struct{})}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.lns[addr] != nil {
		panic("memnet: " + addr + " is in use")
	}
	m.lns[addr] = l
	return &faultListener{Listener: l}
}

// dial is transport.dial on m: it connects once the listener named addr
// accepts, and is refused where none is open. The accept loop of a
// live node is always waiting, so timeout is not needed.
func (m *memnet) dial(addr string, timeout time.Duration) (net.Conn, error) {
	m.mu.Lock()
	l := m.lns[addr]
	m.mu.Unlock()
	if l != nil {
		client, server := net.Pipe()
		select {
		case l.conns <- server:
			return client, nil
		case <-l.done:
		}
	}
	return nil, &net.OpError{Op: "dial", Net: "memnet", Addr: memAddr(addr), Err: errors.New("connection refused")}
}

type memAddr string

func (a memAddr) Network() string { return "memnet" }
func (a memAddr) String() string  { return string(a) }

type pipeListener struct {
	m     *memnet
	addr  memAddr
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.m.mu.Lock()
		if l.m.lns[string(l.addr)] == l {
			delete(l.m.lns, string(l.addr))
		}
		l.m.mu.Unlock()
	})
	return nil
}

func (l *pipeListener) Addr() net.Addr { return l.addr }

// A fault is what a faultConn does with one reply.
type fault int

const (
	passReply       fault = iota
	dropReply             // close without writing it: the request landed, no reply comes
	stallReply            // hold it until the conn closes
	closeAfterReply       // write it, then close: a server without connection reuse
	killAfterReply        // write it, then close the listener and every conn it accepted
)

// faultListener wraps a listener, memnet's or TCP's. It counts the
// conns it accepts and the requests their server answers, and lets
// fault decide what becomes of each reply: a node writes every reply
// frame in one Write.
type faultListener struct {
	net.Listener
	accepts  atomic.Int64
	requests atomic.Int64 // replies the server wrote or tried to write

	mu     sync.Mutex
	fault  func(reply *Envelope) fault // nil passes every reply
	conns  []*faultConn
	closed bool // no Accept succeeds once it is set
}

func (l *faultListener) setFault(f func(reply *Envelope) fault) {
	l.mu.Lock()
	l.fault = f
	l.mu.Unlock()
}

func (l *faultListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	c := &faultConn{Conn: conn, l: l, closed: make(chan struct{})}
	l.mu.Lock()
	closed := l.closed
	if !closed {
		l.conns = append(l.conns, c)
	}
	l.mu.Unlock()
	if closed { // a dial that raced Close or kill
		conn.Close()
		return nil, net.ErrClosed
	}
	l.accepts.Add(1)
	return c, nil
}

func (l *faultListener) Close() error {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	return l.Listener.Close()
}

// faultFor is what fault says of the reply frame p. It is called
// without l.mu held, so a fault may block.
func (l *faultListener) faultFor(p []byte) fault {
	l.mu.Lock()
	f := l.fault
	l.mu.Unlock()
	if f == nil {
		return passReply
	}
	reply, err := ReadFrame(bytes.NewReader(p))
	if err != nil {
		panic(fmt.Sprintf("faultListener: a server write that is not one frame: %v", err))
	}
	return f(reply)
}

// kill takes the node off the network: no new conn, and every open one
// closed.
func (l *faultListener) kill() {
	l.Close()
	l.mu.Lock()
	conns := l.conns
	l.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

type faultConn struct {
	net.Conn
	l      *faultListener
	once   sync.Once
	closed chan struct{}
}

func (c *faultConn) Write(p []byte) (int, error) {
	c.l.requests.Add(1)
	f := c.l.faultFor(p)
	switch f {
	case dropReply:
		c.Close()
		return 0, net.ErrClosed
	case stallReply:
		<-c.closed
		return 0, net.ErrClosed
	}
	n, err := c.Conn.Write(p)
	switch f {
	case closeAfterReply:
		c.Close()
	case killAfterReply:
		c.l.kill()
	}
	return n, err
}

func (c *faultConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// memTransport is a transport that dials on m.
func memTransport(m *memnet, maxIdle int, metrics *Metrics) *transport {
	tr := newTransport(maxIdle, metrics)
	tr.dial = m.dial
	return tr
}

// memNode is a node that serves ln and dials its peers on m.
func memNode(m *memnet, ln net.Listener, metrics *Metrics) *Node {
	node := NewNode(metrics)
	node.tr.dial = m.dial
	node.serve(ln)
	return node
}

// memCluster is NewSelfHost on m: n nodes, node i at "node<i>" behind
// the listener lns[i], and a coordinator that dials them on m.
func memCluster(m *memnet, n int, metrics *Metrics) (c *Cluster, lns []*faultListener) {
	metrics = obs.OrZero(metrics)
	c = &Cluster{metrics: metrics, tr: memTransport(m, n, metrics)}
	for i := 0; i < n; i++ {
		ln := m.listen(fmt.Sprintf("node%d", i))
		lns = append(lns, ln)
		c.nodes = append(c.nodes, memNode(m, ln, metrics))
		c.addrs = append(c.addrs, ln.Addr().String())
	}
	return c, lns
}
