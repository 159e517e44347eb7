// Package dvs implements the Dictionary of View Sets (paper section 3.6):
// the DNS-like lookup service mapping view set identifiers to the exNodes
// of their replicas. A DVS server maintains two tables — the exNode table
// and the server-agent table. Servers form a hierarchy: a query that
// misses locally is forwarded to the parent recursively, and a hit on any
// level is cached on the way back down (like DNS resolution). When the
// whole hierarchy misses, the view set has not been computed yet; the DVS
// consults its server-agent table and forwards the request to the right
// server agent for on-demand generation, then records the returned exNode.
package dvs

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"lonviz/internal/obs"
	"lonviz/internal/obs/prof"
	"lonviz/internal/overload"
)

// Key identifies a view set within a dataset.
type Key struct {
	Dataset string
	ViewSet string
}

func (k Key) String() string { return k.Dataset + "/" + k.ViewSet }

// ErrMiss is returned when no exNode is known and no server agent can
// produce one.
var ErrMiss = errors.New("dvs: view set not found")

// ErrProto reports a malformed request or response.
var ErrProto = errors.New("dvs: protocol error")

// ErrBusy is returned when a DVS server sheds the request under overload
// (admission queue full, or the propagated deadline budget already spent).
// It is retryable: back off and ask again, or consult another level of
// the hierarchy. The package keeps its own sentinel rather than borrowing
// ibp's because dvs deliberately has no dependency on the depot protocol.
var ErrBusy = errors.New("dvs: server busy, retry later")

const (
	maxLine  = 2048
	maxEntry = 4 << 20 // one exNode XML document
)

// Dialer abstracts connection establishment (netsim-compatible).
type Dialer interface {
	Dial(addr string) (net.Conn, error)
}

type netDialer struct{}

func (netDialer) Dial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// GenerateFunc asks a server agent to render and upload a view set,
// returning the exNode XML for the freshly uploaded data. The agent
// package provides the standard implementation; keeping it a function
// avoids a dependency cycle.
type GenerateFunc func(ctx context.Context, agentAddr string, key Key) ([]byte, error)

// Server is one level of the DVS hierarchy.
type Server struct {
	// Parent is the next level up (empty for the root).
	Parent string
	// Dialer shapes connections to the parent; nil means plain TCP.
	Dialer Dialer
	// Generate, when set, lets this server forward misses to a registered
	// server agent for on-demand generation. Typically only the root level
	// sets it.
	Generate GenerateFunc
	// Timeout bounds upstream queries (default 30s).
	Timeout time.Duration
	// Admission bounds concurrent request execution: beyond its in-flight
	// and queue capacity, requests are rejected with ERR BUSY so clients
	// back off instead of queueing behind an overloaded directory. nil
	// admits everything; requests arriving with an exhausted deadline=
	// budget are shed regardless.
	Admission *overload.Gate
	// Tracer receives the server-side request spans opened for traced
	// requests (those carrying a trace= token); nil records into
	// obs.DefaultTracer().
	Tracer *obs.Tracer
	// Obs receives the dvs.shed counters and load gauges; nil records
	// into obs.Default().
	Obs *obs.Registry

	mu      sync.Mutex
	exnodes map[Key][][]byte  // exNode table: replicas' XML documents
	agents  map[string]string // server agent table: dataset -> agent addr
	lis     net.Listener
	conns   map[net.Conn]struct{}
	closed  bool
	stop    context.CancelFunc // cancels in-flight requests on Close
	parent  *Client            // upstream level, built on first forward

	serving     sync.WaitGroup // accept loop and connection handlers
	metricsOnce sync.Once
}

// NewServer creates an empty DVS level.
func NewServer(parent string) *Server {
	return &Server{
		Parent:  parent,
		exnodes: make(map[Key][][]byte),
		agents:  make(map[string]string),
		conns:   make(map[net.Conn]struct{}),
	}
}

// Put records an exNode replica for key (appending to existing replicas).
func (s *Server) Put(key Key, exnodeXML []byte) error {
	if key.Dataset == "" || key.ViewSet == "" {
		return fmt.Errorf("dvs: empty key %+v", key)
	}
	if len(exnodeXML) == 0 || len(exnodeXML) > maxEntry {
		return fmt.Errorf("dvs: exnode size %d out of range", len(exnodeXML))
	}
	cp := append([]byte{}, exnodeXML...)
	s.mu.Lock()
	s.exnodes[key] = append(s.exnodes[key], cp)
	s.mu.Unlock()
	return nil
}

// Replace overwrites every recorded exNode replica for key with the single
// given document. Maintenance tooling uses it after lease renewal or
// replica repair so browsing clients resolve the updated layout instead of
// an accumulating list of stale ones. (Parents and children in the
// hierarchy may still hold cached copies until they refresh.)
func (s *Server) Replace(key Key, exnodeXML []byte) error {
	if key.Dataset == "" || key.ViewSet == "" {
		return fmt.Errorf("dvs: empty key %+v", key)
	}
	if len(exnodeXML) == 0 || len(exnodeXML) > maxEntry {
		return fmt.Errorf("dvs: exnode size %d out of range", len(exnodeXML))
	}
	cp := append([]byte{}, exnodeXML...)
	s.mu.Lock()
	s.exnodes[key] = [][]byte{cp}
	s.mu.Unlock()
	return nil
}

// RegisterAgent records the server agent responsible for dataset.
func (s *Server) RegisterAgent(dataset, agentAddr string) error {
	if dataset == "" || agentAddr == "" {
		return fmt.Errorf("dvs: empty agent registration")
	}
	s.mu.Lock()
	s.agents[dataset] = agentAddr
	s.mu.Unlock()
	return nil
}

// AgentFor returns the registered server agent for dataset.
func (s *Server) AgentFor(dataset string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.agents[dataset]
	return a, ok
}

// lookupLocal returns local replicas for key.
func (s *Server) lookupLocal(key Key) [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	reps := s.exnodes[key]
	out := make([][]byte, len(reps))
	copy(out, reps)
	return out
}

// Resolve answers a query at this level: local table first, then the
// parent hierarchy (caching the answer), then on-demand generation via the
// server-agent table.
func (s *Server) Resolve(ctx context.Context, key Key) ([][]byte, error) {
	if reps := s.lookupLocal(key); len(reps) > 0 {
		return reps, nil
	}
	if s.Parent != "" {
		reps, err := s.parentClient().Get(ctx, key)
		if err == nil && len(reps) > 0 {
			// Cache on the way down, DNS style.
			s.mu.Lock()
			if len(s.exnodes[key]) == 0 {
				s.exnodes[key] = reps
			}
			s.mu.Unlock()
			return reps, nil
		}
		if err != nil && !errors.Is(err, ErrMiss) {
			return nil, err
		}
	}
	// Whole hierarchy missed: the view set has not been computed.
	agentAddr, ok := s.AgentFor(key.Dataset)
	if !ok || s.Generate == nil {
		return nil, fmt.Errorf("%w: %s", ErrMiss, key)
	}
	xml, err := s.Generate(ctx, agentAddr, key)
	if err != nil {
		return nil, fmt.Errorf("dvs: on-demand generation of %s: %w", key, err)
	}
	if err := s.Put(key, xml); err != nil {
		return nil, err
	}
	return [][]byte{xml}, nil
}

// --- wire protocol ---
//
//	GET <dataset> <viewset>            -> OK <n> then n x (<len>\n<xml>) | MISS
//	PUT <dataset> <viewset> <len>\n<xml> -> OK
//	REPLACE <dataset> <viewset> <len>\n<xml> -> OK   (drops prior replicas)
//	REGAGENT <dataset> <addr>          -> OK
//	AGENT <dataset>                    -> OK <addr> | MISS

// parentClient returns the one client this level forwards misses
// through, so its connections to the parent are reused across queries.
func (s *Server) parentClient() *Client {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.parent == nil {
		s.parent = &Client{Addr: s.Parent, Dialer: s.Dialer, Timeout: s.Timeout}
	}
	return s.parent
}

// ListenAndServe starts the DVS on addr and returns the bound address.
func (s *Server) ListenAndServe(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	ctx, stop := context.WithCancel(context.Background())
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		stop()
		l.Close()
		return "", errors.New("dvs: server closed")
	}
	s.lis = l
	s.stop = stop
	s.serving.Add(1)
	s.mu.Unlock()
	s.initMetrics()
	go func() {
		defer s.serving.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				c.Close()
				return
			}
			s.conns[c] = struct{}{}
			s.serving.Add(1)
			s.mu.Unlock()
			go func() {
				defer s.serving.Done()
				s.handle(ctx, c)
				s.mu.Lock()
				delete(s.conns, c)
				s.mu.Unlock()
			}()
		}
	}()
	return l.Addr().String(), nil
}

// Close stops the listener, closes every accepted connection, cancels
// the requests still executing and waits for their handlers to return.
// It then releases the idle connections to the parent level.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	var err error
	if s.lis != nil {
		err = s.lis.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	stop, parent := s.stop, s.parent
	s.mu.Unlock()
	if stop != nil {
		stop()
	}
	s.serving.Wait()
	if parent != nil {
		parent.CloseIdle()
	}
	return err
}

func (s *Server) tracer() *obs.Tracer {
	if s.Tracer != nil {
		return s.Tracer
	}
	return obs.DefaultTracer()
}

func (s *Server) registry() *obs.Registry {
	if s.Obs != nil {
		return s.Obs
	}
	return obs.Default()
}

// initMetrics eagerly registers the overload families so /metrics shows
// them at zero on an idle directory.
func (s *Server) initMetrics() {
	s.metricsOnce.Do(func() {
		reg := s.registry()
		reg.Counter(obs.Label(obs.MDVSShed, "reason", overload.ReasonQueueFull))
		reg.Gauge(obs.MDVSInflight).Set(0)
		reg.Gauge(obs.MDVSQueueDepth).Set(0)
	})
}

// acquire runs one request through admission control, keeping the load
// gauges current. With Admission nil it still sheds requests whose
// propagated deadline budget is already spent.
func (s *Server) acquire(ctx context.Context) (func(), error) {
	if s.Admission == nil {
		if ctx.Err() != nil {
			return nil, &overload.ShedError{Reason: overload.ReasonDeadline}
		}
		return func() {}, nil
	}
	release, err := s.Admission.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	reg := s.registry()
	reg.Gauge(obs.MDVSInflight).Set(s.Admission.InFlight())
	reg.Gauge(obs.MDVSQueueDepth).Set(s.Admission.Queued())
	return func() {
		release()
		reg.Gauge(obs.MDVSInflight).Set(s.Admission.InFlight())
		reg.Gauge(obs.MDVSQueueDepth).Set(s.Admission.Queued())
	}, nil
}

// shed answers one request with ERR BUSY and records why. Callers close
// the connection afterwards: a shed PUT/REPLACE has an unread XML body
// on the wire, and dropping the connection is the only way to stay
// synchronized without reading bytes of a refused request.
func (s *Server) shed(bw *bufio.Writer, verb, reason string) {
	s.registry().Counter(obs.Label(obs.MDVSShed, "reason", reason)).Inc()
	obs.DefaultLogger().Warn(context.Background(), obs.EvShed,
		"component", "dvs", "reason", reason, "op", verb)
	fmt.Fprintf(bw, "ERR BUSY %s\n", reason)
}

// handle serves one connection, one request at a time, until the client
// hangs up or a request is malformed or shed; Close ends it by closing
// the connection. Requests run under base, which Close cancels, so a
// lookup still resolving upstream or generating stops with it.
func (s *Server) handle(base context.Context, c net.Conn) {
	defer c.Close()
	s.initMetrics()
	br := bufio.NewReader(c)
	bw := bufio.NewWriter(c)
	for {
		line, err := br.ReadString('\n')
		if err != nil || len(line) > maxLine {
			return
		}
		// Strip the optional trailing tokens before the exact
		// argument-count matching below: trace= (emitted last) parents
		// this request's span under the calling client's, deadline=
		// bounds the request context with the client's remaining budget.
		// Token-less requests (pre-propagation clients) skip both.
		f, tc, traced := obs.StripTraceToken(strings.Fields(strings.TrimSpace(line)))
		f, budget, hasBudget := obs.StripDeadlineToken(f)
		verb := ""
		if len(f) > 0 {
			verb = f[0]
		}
		ctx := base
		var span *obs.Span
		if traced {
			ctx, span = s.tracer().StartSpan(obs.ContextWithRemote(ctx, tc), obs.SpanDVSServe)
			span.SetAttr("op", verb)
		}
		rctx, dcancel := obs.DeadlineContext(ctx, budget, hasBudget)
		var keep bool
		release, admitErr := s.acquire(rctx)
		if admitErr != nil {
			s.shed(bw, verb, overload.Reason(admitErr))
			keep = false
		} else {
			// CPU attribution: directory-service work profiles under
			// {class=dvs, verb}; no-op until -metrics-addr enables labels.
			lctx := prof.Begin2(rctx, prof.KeyClass, "dvs", prof.KeyVerb, verb)
			keep = s.dispatch(lctx, br, bw, f)
			prof.End(rctx)
			release()
		}
		dcancel()
		span.Finish()
		if !keep {
			bw.Flush()
			return
		}
		if bw.Flush() != nil {
			return
		}
	}
}

func (s *Server) dispatch(ctx context.Context, br *bufio.Reader, bw *bufio.Writer, f []string) bool {
	switch {
	case len(f) == 3 && f[0] == "GET":
		// Queries may recurse upstream; bound them. The span context rides
		// along so hierarchy forwarding re-propagates the same trace to the
		// parent DVS and to on-demand generation.
		timeout := s.Timeout
		if timeout == 0 {
			timeout = 30 * time.Second
		}
		ctx, cancel := context.WithTimeout(ctx, timeout)
		reps, err := s.Resolve(ctx, Key{Dataset: f[1], ViewSet: f[2]})
		cancel()
		switch {
		case errors.Is(err, ErrMiss):
			fmt.Fprintf(bw, "MISS\n")
		case err != nil:
			fmt.Fprintf(bw, "ERR %s\n", oneLine(err.Error()))
		default:
			fmt.Fprintf(bw, "OK %d\n", len(reps))
			for _, r := range reps {
				fmt.Fprintf(bw, "%d\n", len(r))
				bw.Write(r)
			}
		}
		return true
	case len(f) == 4 && (f[0] == "PUT" || f[0] == "REPLACE"):
		n, err := strconv.Atoi(f[3])
		if err != nil || n <= 0 || n > maxEntry {
			fmt.Fprintf(bw, "ERR bad length\n")
			return false
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(br, body); err != nil {
			return false
		}
		record := s.Put
		if f[0] == "REPLACE" {
			record = s.Replace
		}
		if err := record(Key{Dataset: f[1], ViewSet: f[2]}, body); err != nil {
			fmt.Fprintf(bw, "ERR %s\n", oneLine(err.Error()))
			return true
		}
		fmt.Fprintf(bw, "OK\n")
		return true
	case len(f) == 3 && f[0] == "REGAGENT":
		if err := s.RegisterAgent(f[1], f[2]); err != nil {
			fmt.Fprintf(bw, "ERR %s\n", oneLine(err.Error()))
			return true
		}
		fmt.Fprintf(bw, "OK\n")
		return true
	case len(f) == 2 && f[0] == "AGENT":
		if addr, ok := s.AgentFor(f[1]); ok {
			fmt.Fprintf(bw, "OK %s\n", addr)
		} else {
			fmt.Fprintf(bw, "MISS\n")
		}
		return true
	default:
		fmt.Fprintf(bw, "ERR bad request\n")
		return false
	}
}

func oneLine(s string) string { return strings.ReplaceAll(s, "\n", " ") }

// maxIdle caps the idle connections a Client keeps for reuse. A client
// agent resolves one view set at a time plus a few prefetches, so a
// handful covers its steady state; a connection released into a full
// pool is closed instead.
const maxIdle = 4

// Client queries a DVS server over a small pool of persistent
// connections, so a lookup pays one round trip instead of a dial plus a
// round trip. It is safe for concurrent use; CloseIdle releases the pool.
type Client struct {
	Addr    string
	Dialer  Dialer
	Timeout time.Duration
	// Obs receives per-operation latency histograms and error counters
	// (dvs.op.*); nil records into obs.Default().
	Obs *obs.Registry

	mu   sync.Mutex
	idle []*clientConn // most recently used last
}

// clientConn is one connection to the server with the reader that owns
// its inbound bytes for the connection's whole life.
type clientConn struct {
	net.Conn
	br *bufio.Reader
}

// lineSuffix returns the optional trailing request-line tokens
// (" deadline=<ms> trace=<tid>/<sid>") for ctx, or "" when propagation
// is off — request lines stay byte-identical to pre-propagation ones
// unless a deadline or trace is actually being carried.
func lineSuffix(ctx context.Context) string { return obs.LineTokens(ctx) }

// remoteErr classifies one "ERR ..." reply: a BUSY shed becomes the
// typed ErrBusy, anything else the generic remote error pre-overload
// servers already produced.
func remoteErr(f []string) error {
	if len(f) >= 2 && f[1] == "BUSY" {
		return fmt.Errorf("dvs: remote: %s: %w", strings.Join(f[2:], " "), ErrBusy)
	}
	return fmt.Errorf("dvs: remote: %s", strings.Join(f[1:], " "))
}

// observeOp records one client operation's latency and outcome.
func (c *Client) observeOp(op string, start time.Time, err error) {
	reg := c.Obs
	if reg == nil {
		reg = obs.Default()
	}
	reg.Histogram(obs.Label(obs.MDVSOpMs, "op", op), obs.LatencyBucketsMs...).
		Observe(float64(time.Since(start)) / 1e6)
	// A miss is an expected outcome (it triggers on-demand generation),
	// not an operational failure.
	if err != nil && !errors.Is(err, ErrMiss) {
		reg.Counter(obs.Label(obs.MDVSOpErrors, "op", op)).Inc()
	}
}

// take returns an idle connection (reused = true) or, when the pool is
// empty or fresh is set, a newly dialed one.
func (c *Client) take(fresh bool) (cn *clientConn, reused bool, err error) {
	if !fresh {
		c.mu.Lock()
		if n := len(c.idle); n > 0 {
			cn = c.idle[n-1]
			c.idle = c.idle[:n-1]
		}
		c.mu.Unlock()
		if cn != nil {
			return cn, true, nil
		}
	}
	d := c.Dialer
	if d == nil {
		d = netDialer{}
	}
	nc, err := d.Dial(c.Addr)
	if err != nil {
		return nil, false, err
	}
	return &clientConn{Conn: nc, br: bufio.NewReader(nc)}, false, nil
}

// release returns cn to the pool, or closes it when the pool is full.
func (c *Client) release(cn *clientConn) {
	c.mu.Lock()
	if len(c.idle) < maxIdle {
		c.idle = append(c.idle, cn)
		cn = nil
	}
	c.mu.Unlock()
	if cn != nil {
		cn.Close()
	}
}

// CloseIdle closes the connections the client keeps for reuse. The
// client stays usable: the next request dials a new connection.
func (c *Client) CloseIdle() {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, cn := range idle {
		cn.Close()
	}
}

// exchange runs one request — verb, args, the propagation tokens and an
// optional body — and parses the reply with read. Its deadline is ctx's,
// else Timeout (default 30s) from now.
//
// The connection goes back to the pool only after a fully parsed OK or
// MISS reply (read returned nil or ErrMiss) with no byte left unread; an
// ERR reply, a parse error or an I/O error closes it. A request that
// fails on a reused connection before any reply byte arrives found a
// connection the server had dropped while it sat idle: the rest of the
// pool is likely stale too, so it is released, and the request is
// retried once on a fresh dial. PUT is never retried, because it appends
// a replica and the server may have recorded it before failing; nor is
// a timeout, which says the server is slow rather than gone.
// Cancelling ctx ends the exchange at once; the error is then ctx's.
func (c *Client) exchange(ctx context.Context, verb, args string, body []byte, read func(*bufio.Reader) error) (err error) {
	defer func(start time.Time) { c.observeOp(verb, start, err) }(time.Now())
	if err := ctx.Err(); err != nil {
		return err
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		timeout := c.Timeout
		if timeout == 0 {
			timeout = 30 * time.Second
		}
		deadline = time.Now().Add(timeout)
	}
	line := []byte(verb + " " + args + lineSuffix(ctx) + "\n")
	for fresh := false; ; fresh = true {
		cn, reused, err := c.take(fresh)
		if err != nil {
			return err
		}
		_ = cn.SetDeadline(deadline)
		// Cancelling ctx interrupts the exchange by pulling the deadline
		// in; a connection so cut is never pooled.
		interrupt := context.AfterFunc(ctx, func() { _ = cn.SetDeadline(time.Now()) })
		bufs := net.Buffers{line}
		if len(body) > 0 {
			bufs = append(bufs, body)
		}
		if _, err = bufs.WriteTo(cn); err == nil {
			_, err = cn.br.Peek(1)
		}
		if err != nil {
			interrupt()
			cn.Close()
			if ctx.Err() != nil {
				return ctx.Err()
			}
			var ne net.Error
			stale := reused && !(errors.As(err, &ne) && ne.Timeout())
			if stale {
				c.CloseIdle()
			}
			if stale && verb != "PUT" {
				continue
			}
			return fmt.Errorf("%w: %w", ErrProto, err)
		}
		err = read(cn.br)
		if interrupt() && (err == nil || errors.Is(err, ErrMiss)) && cn.br.Buffered() == 0 {
			c.release(cn)
		} else {
			cn.Close()
		}
		if err != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
}

// readStatus reads one reply line and returns the fields after "OK".
// MISS becomes ErrMiss, ERR the remote error, anything else ErrProto.
func readStatus(br *bufio.Reader) ([]string, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrProto, err)
	}
	f := strings.Fields(line)
	switch {
	case len(f) >= 1 && f[0] == "OK":
		return f[1:], nil
	case len(f) >= 1 && f[0] == "MISS":
		return nil, ErrMiss
	case len(f) >= 1 && f[0] == "ERR":
		return nil, remoteErr(f)
	}
	return nil, fmt.Errorf("%w: response %q", ErrProto, line)
}

// readReplicas parses a GET reply: OK <n> then n x (<len>\n<xml>).
func readReplicas(br *bufio.Reader) ([][]byte, error) {
	f, err := readStatus(br)
	if err != nil {
		return nil, err
	}
	n := -1
	if len(f) == 1 {
		n, err = strconv.Atoi(f[0])
	}
	if err != nil || n < 0 || n > 1024 {
		return nil, fmt.Errorf("%w: bad replica count", ErrProto)
	}
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		szLine, err := br.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrProto, err)
		}
		sz, err := strconv.Atoi(strings.TrimSpace(szLine))
		if err != nil || sz <= 0 || sz > maxEntry {
			return nil, fmt.Errorf("%w: bad entry size", ErrProto)
		}
		body := make([]byte, sz)
		if _, err := io.ReadFull(br, body); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrProto, err)
		}
		out = append(out, body)
	}
	return out, nil
}

// expectOK parses a reply that carries nothing but its status.
func expectOK(br *bufio.Reader) error {
	_, err := readStatus(br)
	if errors.Is(err, ErrMiss) {
		return fmt.Errorf("%w: unexpected MISS", ErrProto)
	}
	return err
}

// Get fetches all known exNode replicas for key. A pure miss returns
// ErrMiss.
func (c *Client) Get(ctx context.Context, key Key) (reps [][]byte, err error) {
	err = c.exchange(ctx, "GET", key.Dataset+" "+key.ViewSet, nil, func(br *bufio.Reader) (err error) {
		reps, err = readReplicas(br)
		return err
	})
	if errors.Is(err, ErrMiss) {
		return nil, fmt.Errorf("%w: %s", ErrMiss, key)
	}
	return reps, err
}

// Put registers an exNode replica for key.
func (c *Client) Put(ctx context.Context, key Key, exnodeXML []byte) error {
	return c.record(ctx, "PUT", key, exnodeXML)
}

// Replace overwrites every recorded exNode replica for key with one
// document (see Server.Replace).
func (c *Client) Replace(ctx context.Context, key Key, exnodeXML []byte) error {
	return c.record(ctx, "REPLACE", key, exnodeXML)
}

func (c *Client) record(ctx context.Context, verb string, key Key, exnodeXML []byte) error {
	args := fmt.Sprintf("%s %s %d", key.Dataset, key.ViewSet, len(exnodeXML))
	return c.exchange(ctx, verb, args, exnodeXML, expectOK)
}

// RegisterAgent records the server agent for a dataset.
func (c *Client) RegisterAgent(ctx context.Context, dataset, agentAddr string) error {
	return c.exchange(ctx, "REGAGENT", dataset+" "+agentAddr, nil, expectOK)
}

// AgentFor queries the server-agent table.
func (c *Client) AgentFor(ctx context.Context, dataset string) (addr string, err error) {
	err = c.exchange(ctx, "AGENT", dataset, nil, func(br *bufio.Reader) error {
		f, err := readStatus(br)
		if err == nil && len(f) != 1 {
			err = fmt.Errorf("%w: bad AGENT reply", ErrProto)
		}
		if err == nil {
			addr = f[0]
		}
		return err
	})
	return addr, err
}
