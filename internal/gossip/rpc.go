package gossip

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"rumor/internal/obs"
)

// Connection lifecycle. A call used to be one short-lived connection on
// the assumption that reuse buys nothing at live-cluster scale. PR 11
// measured it: the dial alone is 0.29 of a 124 µs loopback call on the
// caller's side (gossip.dial_share), the transport 0.86 of a
// gossip_live_sync trial (phase.transport_share), and the callee's
// accept, per-connection goroutine, epoll registration and close never
// showed in that caller-side probe. Nodes and the coordinator therefore
// keep their links (transport, below): on gossip_live_sync that took
// work_per_s from ~7.9k to ~23k messages/s (CHANGES.md, PR 13).
//
// The server side needed no change for this — handleConn always looped
// over frames — so a one-shot Call and a transport interoperate, in
// either direction, on the same byte-identical wire format.

const (
	// maxIdleLinks bounds the idle links one node keeps, least recently
	// used evicted first: a self-hosted complete graph must hold O(n)
	// file descriptors, not n². 8 covers every neighbor of a hypercube
	// up to 256 nodes.
	maxIdleLinks = 8
	// linkIdleTimeout is how long an idle link stays usable. Half the
	// server's connIdleTimeout, so the client drops a link well before
	// the server closes it under the client's next request.
	linkIdleTimeout = connIdleTimeout / 2
	// linkBufSize sizes each end's read buffer; a gossip frame is ~65
	// bytes and larger ones (a STARTUP's neighbor list) read through.
	linkBufSize = 512
)

// link is one client-side connection. It carries one call at a time:
// the server answers frames in order on a connection, so replies need
// no message id to find their caller.
type link struct {
	addr      string
	conn      net.Conn
	br        *bufio.Reader
	idleSince time.Time // when it went onto the idle list
}

// dialTCP is the dial of Call and of every transport newTransport builds.
func dialTCP(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

func dialLink(dial func(addr string, timeout time.Duration) (net.Conn, error), addr string, timeout time.Duration, metrics *Metrics) (*link, error) {
	conn, err := dial(addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("gossip: dial %s: %w", addr, err)
	}
	cc := &countingConn{Conn: conn, metrics: metrics}
	return &link{addr: addr, conn: cc, br: bufio.NewReaderSize(cc, linkBufSize)}, nil
}

// roundTrip sends one encoded frame and reads the one reply. On error,
// replyStarted reports whether any byte of a reply had arrived.
func (l *link) roundTrip(method string, frame []byte, timeout time.Duration) (reply *Envelope, replyStarted bool, err error) {
	if err := l.conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, false, err
	}
	if _, err := l.conn.Write(frame); err != nil {
		return nil, false, fmt.Errorf("gossip: send %s to %s: %w", method, l.addr, err)
	}
	if _, err := l.br.Peek(1); err != nil {
		return nil, false, fmt.Errorf("gossip: reply to %s from %s: %w", method, l.addr, err)
	}
	reply, err = ReadFrame(l.br)
	if err != nil {
		return nil, true, fmt.Errorf("gossip: reply to %s from %s: %w", method, l.addr, err)
	}
	return reply, true, nil
}

// Call dials addr, sends env as one frame, reads the single reply frame
// and closes the connection: the one-shot exchange, for callers with a
// message or two to send (tests, probes, a SHUTDOWN from a script).
// Nodes and the coordinator go through a transport instead. metrics may
// be nil; when set, the wire bytes moved in each direction are counted.
func Call(addr string, env *Envelope, timeout time.Duration, metrics *Metrics) (*Envelope, error) {
	frame, err := encodeFrame(env)
	if err != nil {
		return nil, fmt.Errorf("gossip: send %s to %s: %w", env.Method, addr, err)
	}
	l, err := dialLink(dialTCP, addr, timeout, obs.OrZero(metrics))
	if err != nil {
		return nil, err
	}
	defer l.conn.Close()
	reply, _, err := l.roundTrip(env.Method, frame, timeout)
	return reply, err
}

// checkReply rejects a mismatched or failed reply: it must echo env's
// method and carry no handler error.
func checkReply(addr string, env, reply *Envelope) (*Envelope, error) {
	if reply.Err != "" {
		return nil, fmt.Errorf("gossip: %s on %s: %s", env.Method, addr, reply.Err)
	}
	if reply.Method != env.Method {
		return nil, fmt.Errorf("gossip: sent %s to %s, reply tagged %s", env.Method, addr, reply.Method)
	}
	return reply, nil
}

// transport is the connection-reusing caller every Node and Cluster
// owns: an idle-link list per peer address, a link taken off it for the
// length of one call (so concurrent calls to one peer use distinct
// links and no lock is held across network I/O), handed back after a
// clean reply and closed on any error.
//
// Stale links are handled the way net/http handles idempotent requests.
// A link idle longer than linkIdleTimeout is discarded unused. A call
// on a reused link that fails before the first reply byte with anything
// but a timeout (EOF, reset: the peer closed the link while it sat
// idle, or restarted) is sent once more on a fresh dial. It is never
// resent after a reply byte or a deadline, when the peer may have acted
// on it: a push must not count twice toward an acceptance threshold.
// (A Node closes a link it has read a request from only in Close, which
// closes its listener first, so the redial finds nobody to tell twice.)
type transport struct {
	metrics *Metrics
	maxIdle int
	dial    func(addr string, timeout time.Duration) (net.Conn, error) // opens each new link; dialTCP

	mu sync.Mutex
	// idle[addr] is ordered by idleSince, oldest first; no list is
	// empty. nidle is the total over all addresses. A nil map is a
	// closed transport.
	idle  map[string][]*link
	nidle int
}

func newTransport(maxIdle int, metrics *Metrics) *transport {
	return &transport{metrics: metrics, maxIdle: maxIdle, dial: dialTCP, idle: make(map[string][]*link)}
}

// call sends env to addr and returns the reply.
func (t *transport) call(addr string, env *Envelope, timeout time.Duration) (*Envelope, error) {
	frame, err := encodeFrame(env)
	if err != nil {
		return nil, fmt.Errorf("gossip: send %s to %s: %w", env.Method, addr, err)
	}
	l := t.takeIdle(addr)
	reused := l != nil // so the peer may have closed it since
	for {
		if l == nil {
			if l, err = dialLink(t.dial, addr, timeout, t.metrics); err != nil {
				return nil, err
			}
			t.metrics.dials.Inc()
		}
		reply, replyStarted, err := l.roundTrip(env.Method, frame, timeout)
		if err == nil {
			t.putIdle(l)
			return reply, nil
		}
		l.conn.Close()
		var ne net.Error
		if !reused || replyStarted || (errors.As(err, &ne) && ne.Timeout()) {
			return nil, err
		}
		l, reused = nil, false // stale link: once more, on a fresh one
	}
}

// callChecked is call plus checkReply.
func (t *transport) callChecked(addr string, env *Envelope, timeout time.Duration) (*Envelope, error) {
	reply, err := t.call(addr, env, timeout)
	if err != nil {
		return nil, err
	}
	return checkReply(addr, env, reply)
}

// takeIdle returns the most recently used idle link to addr, or nil.
func (t *transport) takeIdle(addr string) *link {
	var l *link
	var expired []*link
	t.mu.Lock()
	links := t.idle[addr]
	if k := len(links) - 1; k >= 0 {
		if time.Since(links[k].idleSince) < linkIdleTimeout {
			l, links = links[k], links[:k]
		} else {
			expired, links = links, nil // the newest has expired, so all have
		}
		t.setIdle(addr, links)
		removed := k + 1 - len(links)
		t.nidle -= removed
		t.metrics.idleConns.Add(float64(-removed))
	}
	t.mu.Unlock()
	for _, e := range expired {
		e.conn.Close()
	}
	if l != nil {
		t.metrics.reuses.Inc()
	}
	return l
}

// setIdle stores addr's idle list, keeping empty lists out of the map.
func (t *transport) setIdle(addr string, links []*link) {
	if len(links) == 0 {
		delete(t.idle, addr)
	} else {
		t.idle[addr] = links
	}
}

// putIdle hands a link back after a clean reply, evicting the least
// recently used idle link when that exceeds the bound.
func (t *transport) putIdle(l *link) {
	l.idleSince = time.Now()
	t.mu.Lock()
	if t.idle == nil {
		t.mu.Unlock()
		l.conn.Close()
		return
	}
	t.idle[l.addr] = append(t.idle[l.addr], l)
	var evicted *link
	if t.nidle < t.maxIdle {
		t.nidle++
		t.metrics.idleConns.Inc()
	} else {
		for _, links := range t.idle {
			if evicted == nil || links[0].idleSince.Before(evicted.idleSince) {
				evicted = links[0]
			}
		}
		t.setIdle(evicted.addr, t.idle[evicted.addr][1:])
	}
	t.mu.Unlock()
	if evicted != nil {
		evicted.conn.Close()
	}
}

// close closes every idle link. A link out on a call is closed when
// the call hands it back.
func (t *transport) close() {
	t.mu.Lock()
	idle, n := t.idle, t.nidle
	t.idle, t.nidle = nil, 0
	t.mu.Unlock()
	for _, links := range idle {
		for _, l := range links {
			l.conn.Close()
		}
	}
	t.metrics.idleConns.Add(float64(-n))
}

// countingConn feeds wire byte counts into the metrics family.
type countingConn struct {
	net.Conn
	metrics *Metrics
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.metrics.frameBytes.With("received").Add(float64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.metrics.frameBytes.With("sent").Add(float64(n))
	}
	return n, err
}
