package gossip

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rumor/internal/core"
	"rumor/internal/obs"
	"rumor/internal/service"
	"rumor/internal/xrand"
)

// asyncRound tags messages sent outside the synchronous round
// structure.
const asyncRound = int32(-1)

const (
	// connIdleTimeout closes a server-side connection with no traffic.
	connIdleTimeout = 2 * time.Minute
	// gossipCallTimeout bounds one gossip-plane exchange. It must cover
	// the worst-case injected latency (the callee may sleep up to
	// 4*maxLatencyMean before a pull reply).
	gossipCallTimeout = 4*maxLatencyMean + 5*time.Second
)

// Node is one live gossip participant: a TCP listener whose dispatcher
// routes incoming envelopes by method tag. Between STARTUP and
// SHUTDOWN it plays a single graph vertex in one trial; a new STARTUP
// resets it for the next trial, so one process can host many trials in
// sequence (or many Nodes at once — see Cluster).
type Node struct {
	metrics    *Metrics
	onShutdown func()
	tr         *transport // outgoing gossip calls

	ln       net.Listener
	handlers map[string]func(env *Envelope) (interface{}, error)

	wg        sync.WaitGroup
	closeOnce sync.Once
	done      chan struct{}

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	// mu guards the trial state below, including every rng draw (the
	// async clock and concurrent pull handlers share the RNG).
	mu            sync.Mutex
	active        bool
	cfg           StartupConfig
	proto         core.Protocol // cfg.Protocol as parsed by validateStartup
	rng           *xrand.RNG
	informed      bool
	hearings      int
	informedRound int32
	informedAt    time.Time
	clockStop     chan struct{}
	clockDone     chan struct{}

	sent     atomic.Int64
	received atomic.Int64
	dropped  atomic.Int64
}

// NewNode builds a node. metrics may be nil.
func NewNode(metrics *Metrics) *Node {
	metrics = obs.OrZero(metrics)
	n := &Node{
		metrics: metrics,
		tr:      newTransport(maxIdleLinks, metrics),
		done:    make(chan struct{}),
		conns:   make(map[net.Conn]struct{}),
	}
	n.handlers = map[string]func(*Envelope) (interface{}, error){
		MethodPush:       n.handlePush,
		MethodPull:       n.handlePull,
		MethodStartup:    n.handleStartup,
		MethodDistribute: n.handleDistribute,
		MethodRound:      n.handleRound,
		MethodReport:     n.handleReport,
		MethodShutdown:   n.handleShutdown,
		MethodPing:       func(*Envelope) (interface{}, error) { return Ack{}, nil },
	}
	return n
}

// OnShutdown registers a hook invoked (once per SHUTDOWN message,
// after the reply is written) so a process-level host can exit when
// the coordinator tears the cluster down.
func (n *Node) OnShutdown(fn func()) { n.onShutdown = fn }

// Listen binds addr ("host:port", ":0" for ephemeral) and starts
// serving. Call Close to stop.
func (n *Node) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("gossip: listen %s: %w", addr, err)
	}
	n.serve(ln)
	return nil
}

// serve starts serving ln, which Close closes.
func (n *Node) serve(ln net.Listener) {
	n.ln = ln
	n.metrics.nodes.Inc()
	n.wg.Add(1)
	go n.acceptLoop()
}

// Addr returns the bound listen address.
func (n *Node) Addr() string {
	if n.ln == nil {
		return ""
	}
	return n.ln.Addr().String()
}

// Close stops the async clock, the listener, and every open
// connection, waits for all node goroutines to exit, then closes the
// idle links to peers. Safe to call more than once.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		close(n.done)
		n.stopClock()
		if n.ln != nil {
			n.ln.Close()
		}
		n.connMu.Lock()
		for c := range n.conns {
			c.Close()
		}
		n.connMu.Unlock()
		n.wg.Wait()
		n.tr.close()
		n.metrics.nodes.Dec()
	})
	return nil
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // Close() or a fatal listener error
		}
		n.connMu.Lock()
		n.conns[conn] = struct{}{}
		n.connMu.Unlock()
		n.wg.Add(1)
		go n.handleConn(conn)
	}
}

func (n *Node) handleConn(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		conn.Close()
		n.connMu.Lock()
		delete(n.conns, conn)
		n.connMu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, linkBufSize)
	for {
		conn.SetReadDeadline(time.Now().Add(connIdleTimeout))
		env, err := ReadFrame(br)
		if err != nil {
			return
		}
		n.metrics.received.With(env.Method).Inc()
		reply := n.dispatch(env)
		conn.SetWriteDeadline(time.Now().Add(gossipCallTimeout))
		if err := WriteFrame(conn, reply); err != nil {
			return
		}
		if env.Method == MethodShutdown && reply.Err == "" && n.onShutdown != nil {
			// After the reply is on the wire the host may exit.
			go n.onShutdown()
		}
	}
}

func (n *Node) dispatch(env *Envelope) *Envelope {
	reply := &Envelope{Method: env.Method, From: n.vertex()}
	h, ok := n.handlers[env.Method]
	if !ok {
		reply.Err = fmt.Sprintf("unknown method %q", env.Method)
		return reply
	}
	payload, err := h(env)
	if err != nil {
		reply.Err = err.Error()
		return reply
	}
	if payload != nil {
		raw, err := marshalPayload(payload)
		if err != nil {
			reply.Err = fmt.Sprintf("marshal reply: %v", err)
			return reply
		}
		reply.Payload = raw
	}
	return reply
}

func (n *Node) vertex() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cfg.Node
}

// ---- control plane ----

// validateStartup checks a STARTUP config and returns its protocol
// parsed with the cell vocabulary's own parser, so the node dispatches
// on exactly what validation accepted (any spelling ParseProtocol
// takes: "push-pull", "pp", "PP", …).
func validateStartup(cfg *StartupConfig) (core.Protocol, error) {
	proto, err := service.ParseProtocol(cfg.Protocol)
	if err != nil {
		return 0, err
	}
	switch cfg.Timing {
	case service.TimingSync:
	case service.TimingAsync:
		if cfg.TimeUnit <= 0 {
			return 0, fmt.Errorf("async timing needs a positive time unit")
		}
	default:
		return 0, fmt.Errorf("unknown timing %q", cfg.Timing)
	}
	if cfg.LossProb < 0 || cfg.LossProb >= 1 {
		return 0, fmt.Errorf("loss probability %v outside [0, 1)", cfg.LossProb)
	}
	if cfg.Threshold < 0 {
		return 0, fmt.Errorf("negative acceptance threshold %d", cfg.Threshold)
	}
	return proto, cfg.Latency.Validate()
}

func (n *Node) handleStartup(env *Envelope) (interface{}, error) {
	var cfg StartupConfig
	if err := env.Decode(&cfg); err != nil {
		return nil, err
	}
	proto, err := validateStartup(&cfg)
	if err != nil {
		return nil, err
	}
	n.stopClock() // discard the previous trial's clock before resetting
	n.mu.Lock()
	n.cfg = cfg
	n.proto = proto
	n.active = true
	n.rng = xrand.New(cfg.Seed)
	n.informed = false
	n.hearings = 0
	n.informedRound = -1
	n.informedAt = time.Time{}
	if cfg.Timing == service.TimingAsync {
		stop := make(chan struct{})
		done := make(chan struct{})
		n.clockStop, n.clockDone = stop, done
		n.wg.Add(1)
		go n.clockLoop(stop, done, cfg.TimeUnit)
	}
	n.mu.Unlock()
	n.sent.Store(0)
	n.received.Store(0)
	n.dropped.Store(0)
	return Ack{}, nil
}

func (n *Node) handleDistribute(env *Envelope) (interface{}, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.active {
		return nil, fmt.Errorf("distribute before startup")
	}
	if !n.informed {
		n.informed = true
		n.hearings = max(n.cfg.Threshold, 1)
		n.informedRound = 0
		n.informedAt = time.Now()
	}
	return Ack{}, nil
}

func (n *Node) handleRound(env *Envelope) (interface{}, error) {
	var cmd RoundCmd
	if err := env.Decode(&cmd); err != nil {
		return nil, err
	}
	n.mu.Lock()
	active, timing := n.active, n.cfg.Timing
	n.mu.Unlock()
	if !active {
		return nil, fmt.Errorf("round before startup")
	}
	if timing != service.TimingSync {
		return nil, fmt.Errorf("round command on an %s node", timing)
	}
	n.metrics.rounds.Inc()
	n.contact(cmd.Round)
	n.mu.Lock()
	informed := n.informed
	n.mu.Unlock()
	return RoundAck{Informed: informed}, nil
}

func (n *Node) handleReport(env *Envelope) (interface{}, error) {
	n.mu.Lock()
	rep := Report{
		Node:          n.cfg.Node,
		Informed:      n.informed,
		Hearings:      n.hearings,
		InformedRound: n.informedRound,
	}
	if n.informed {
		rep.InformedAtUnixNano = n.informedAt.UnixNano()
	}
	n.mu.Unlock()
	rep.Sent = n.sent.Load()
	rep.Received = n.received.Load()
	rep.Dropped = n.dropped.Load()
	return rep, nil
}

func (n *Node) handleShutdown(env *Envelope) (interface{}, error) {
	n.stopClock()
	n.mu.Lock()
	n.active = false
	n.mu.Unlock()
	return Ack{}, nil
}

// stopClock stops the async clock goroutine and waits for it to exit.
// It must not be called with n.mu held (the clock loop takes n.mu).
func (n *Node) stopClock() {
	n.mu.Lock()
	stop, done := n.clockStop, n.clockDone
	n.clockStop, n.clockDone = nil, nil
	n.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// clockLoop is the async-timing driver: a rate-1 exponential clock
// scaled by the configured time unit, contacting one random neighbor
// per tick.
func (n *Node) clockLoop(stop, done chan struct{}, unit time.Duration) {
	defer n.wg.Done()
	defer close(done)
	for {
		n.mu.Lock()
		wait := time.Duration(n.rng.Exp(1) * float64(unit))
		n.mu.Unlock()
		if wait <= 0 {
			wait = time.Nanosecond
		}
		t := time.NewTimer(wait)
		select {
		case <-stop:
			t.Stop()
			return
		case <-n.done:
			t.Stop()
			return
		case <-t.C:
		}
		n.contact(asyncRound)
	}
}

// ---- gossip plane ----

func (n *Node) handlePush(env *Envelope) (interface{}, error) {
	var r Rumor
	if err := env.Decode(&r); err != nil {
		return nil, err
	}
	n.received.Add(1)
	n.hear(r.Round)
	return Ack{}, nil
}

func (n *Node) handlePull(env *Envelope) (interface{}, error) {
	var req PullRequest
	if err := env.Decode(&req); err != nil {
		return nil, err
	}
	n.received.Add(1)
	n.mu.Lock()
	informed := n.active && n.informedIn(req.Round)
	var lost bool
	var delay time.Duration
	if informed {
		// The reply transmission carries the rumor: loss and latency
		// are drawn on the rumor-sending side, here the callee.
		lost = n.rng.Bernoulli(n.cfg.LossProb)
		if !lost {
			delay = n.cfg.Latency.sample(n.rng)
		}
	}
	n.mu.Unlock()
	if lost {
		n.dropped.Add(1)
		n.metrics.dropped.Inc()
		informed = false
	}
	if delay > 0 {
		n.sleepOrDone(delay)
	}
	return PullReply{Informed: informed}, nil
}

// contact performs one gossip exchange with a uniformly random
// neighbor: push delivers the rumor if this node is informed, pull
// fetches it if not, push-pull does whichever applies. All state and
// RNG access happens under n.mu; network I/O happens outside it.
func (n *Node) contact(round int32) {
	n.mu.Lock()
	if !n.active || len(n.cfg.Neighbors) == 0 {
		n.mu.Unlock()
		return
	}
	cfg := n.cfg
	informed := n.informedIn(round)
	peer := cfg.Neighbors[n.rng.Intn(len(cfg.Neighbors))]
	doPush := informed && n.proto != core.Pull
	// An informed node's pull cannot change any state, so it is
	// skipped; spreading dynamics are unaffected.
	doPull := !informed && n.proto != core.Push
	var pushLost bool
	var pushDelay time.Duration
	if doPush {
		pushLost = n.rng.Bernoulli(cfg.LossProb)
		if !pushLost {
			pushDelay = cfg.Latency.sample(n.rng)
		}
	}
	n.mu.Unlock()

	if !doPush && !doPull {
		return
	}
	n.metrics.contacts.Inc()
	if doPush {
		if pushLost {
			n.dropped.Add(1)
			n.metrics.dropped.Inc()
		} else {
			if pushDelay > 0 {
				n.sleepOrDone(pushDelay)
			}
			env, err := NewEnvelope(MethodPush, cfg.Node, Rumor{Round: round})
			if err == nil {
				n.sent.Add(1)
				n.metrics.sent.With(MethodPush).Inc()
				if _, err := n.tr.call(peer, env, gossipCallTimeout); err != nil {
					n.metrics.dialErrors.Inc()
				}
			}
		}
	}
	if doPull {
		env, err := NewEnvelope(MethodPull, cfg.Node, PullRequest{Round: round})
		if err != nil {
			return
		}
		n.sent.Add(1)
		n.metrics.sent.With(MethodPull).Inc()
		reply, err := n.tr.call(peer, env, gossipCallTimeout)
		if err != nil {
			n.metrics.dialErrors.Inc()
			return
		}
		if reply.Err != "" {
			return
		}
		var pr PullReply
		if err := reply.Decode(&pr); err != nil {
			return
		}
		if pr.Informed {
			n.hear(round)
		}
	}
}

// informedIn reports whether the node acts as informed in the given
// round: a synchronous round runs on start-of-round state, so a node
// that accepted the rumor during round r neither pushes it nor answers
// a pull with it until round r+1 — whatever order the round's messages
// happen to arrive in. Async operation (round -1) has no rounds to
// separate. Callers hold n.mu.
func (n *Node) informedIn(round int32) bool {
	return n.informed && (round == asyncRound || n.informedRound < round)
}

// hear records one hearing of the rumor; the node accepts it (becomes
// informed) once hearings reach the configured threshold.
func (n *Node) hear(round int32) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.active || n.informed {
		return
	}
	n.hearings++
	threshold := max(n.cfg.Threshold, 1)
	if n.hearings >= threshold {
		n.informed = true
		n.informedRound = round
		n.informedAt = time.Now()
	}
}

// sleepOrDone sleeps for d, returning early if the node closes.
func (n *Node) sleepOrDone(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-n.done:
	}
}
