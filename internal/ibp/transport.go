package ibp

// The framed IBP transport: the one accept/serve loop behind every server
// that speaks the IBP line protocol. Depots and edge caches differ only
// in the verbs they register and the telemetry names they emit; reading
// lines, stripping the trace=/deadline=/tag= tokens, the PIPELINE grant,
// payload framing, admission control, spans, metrics and the plain or
// "T<n>" response framing all live here, once.
//
// A connection starts serial: untagged, a window of one, each request
// executed inline before the next line is read. PIPELINE switches it to
// tagged mode, where up to the granted window of requests execute
// concurrently and answer out of order. In both modes a verb's payload is
// consumed in the reader loop before admission, so the byte stream stays
// framed whatever happens to the request: a shed answers ERR BUSY and
// keeps the connection. Only a malformed request line (unknown verb, bad
// argument count, unparsable payload header, or an untagged request on a
// pipelined connection) is protocol-fatal.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"strconv"
	"sync"
	"time"

	"lonviz/internal/bufpool"
	"lonviz/internal/obs"
	"lonviz/internal/obs/prof"
	"lonviz/internal/overload"
)

// Verb is one request handler registered on a Transport.
type Verb struct {
	// Args is the number of fields after the verb; a request with any
	// other count is answered ERR PROTO and the connection closes.
	Args int
	// Payload marks a verb whose request line is followed by raw bytes,
	// as many as its <len> field says (see ParseRange). The transport
	// reads them before admission and recycles them after Serve.
	Payload bool
	// PooledBody says Serve's body comes from bufpool and goes back to it
	// once written. Leave it false for bodies the handler still owns.
	PooledBody bool
	// Serve executes one admitted request: f holds the fields with the
	// tokens stripped (f[0] is the verb), payload the consumed request
	// bytes. head is the text after "OK " on the status line and body,
	// if any, follows it. An error is answered "ERR <code> <message>"
	// with the code of its typed IBP error and keeps the connection.
	Serve func(ctx context.Context, f []string, payload []byte) (head string, body []byte, err error)
}

// ServeDesc names what one server's transport emits. Errors, Inflight,
// QueueDepth, ServeErrEvent and ProfClass may be empty: not emitted.
type ServeDesc struct {
	// Component names the server in logs and shed events.
	Component string
	// OpMs is the per-verb service-time histogram family ({op=...}).
	OpMs string
	// Span is the server-side span opened for traced requests.
	Span string
	// Shed counts admission-control rejections ({reason=...}).
	Shed string
	// Errors counts requests answered with ERR ({op=...}).
	Errors string
	// Inflight and QueueDepth are the admission gate's load gauges.
	Inflight, QueueDepth string
	// ServeErrEvent is the warn event logged for every ERR answer.
	ServeErrEvent string
	// ProfClass is the pprof class label on request execution.
	ProfClass string
	// Zero lists counter families registered at zero before any traffic,
	// so /metrics shows them on an idle server.
	Zero []string
}

// Transport serves the IBP line protocol for a set of registered verbs.
// Servers embed it and build it with NewTransport.
type Transport struct {
	// PipelineWindow caps the in-flight window granted to clients that
	// negotiate pipelined mode with the PIPELINE verb. 0 means
	// DefaultPipelineWindow; negative disables pipelining entirely
	// (PIPELINE answers ERR PROTO and clients fall back to serial
	// one-request-per-connection mode).
	PipelineWindow int
	// Admission bounds concurrent request execution: beyond MaxInFlight
	// running plus MaxQueue waiting, requests are rejected with ERR BUSY
	// so clients fail over to another replica instead of queueing behind
	// an overloaded server. nil admits everything. Requests arriving with
	// an exhausted deadline= budget are shed regardless (the client has
	// already moved on), so deadline enforcement works with Admission nil.
	Admission *overload.Gate
	// Logf logs server events; nil disables logging.
	Logf func(format string, args ...interface{})
	// Obs receives the per-verb service-time histograms, shed and error
	// counters; nil records into obs.Default().
	Obs *obs.Registry
	// Tracer receives the server-side request spans opened for traced
	// requests (those carrying a trace= token); nil records into
	// obs.DefaultTracer().
	Tracer *obs.Tracer

	desc  ServeDesc
	verbs map[string]Verb

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]bool
	closed   bool

	metricsOnce sync.Once
}

// NewTransport builds a transport serving verbs and emitting desc's names.
func NewTransport(desc ServeDesc, verbs map[string]Verb) *Transport {
	return &Transport{desc: desc, verbs: verbs, conns: make(map[net.Conn]bool)}
}

func (t *Transport) logf(format string, args ...interface{}) {
	if t.Logf != nil {
		t.Logf(format, args...)
	}
}

func (t *Transport) tracer() *obs.Tracer {
	if t.Tracer != nil {
		return t.Tracer
	}
	return obs.DefaultTracer()
}

func (t *Transport) registry() *obs.Registry {
	if t.Obs != nil {
		return t.Obs
	}
	return obs.Default()
}

// initMetrics eagerly registers the overload families so /metrics shows
// them at zero on an idle server (the check.sh smoke greps for them
// before any traffic arrives).
func (t *Transport) initMetrics() {
	t.metricsOnce.Do(func() {
		reg := t.registry()
		reg.Counter(obs.Label(t.desc.Shed, "reason", overload.ReasonQueueFull))
		for _, name := range t.desc.Zero {
			reg.Counter(name)
		}
		if t.desc.Inflight != "" {
			reg.Gauge(t.desc.Inflight).Set(0)
			reg.Gauge(t.desc.QueueDepth).Set(0)
		}
	})
}

// Serve accepts connections on l until Close. It returns when the listener
// fails (net.ErrClosed after Close).
func (t *Transport) Serve(l net.Listener) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return fmt.Errorf("%s: server closed", t.desc.Component)
	}
	t.listener = l
	t.mu.Unlock()
	t.initMetrics()
	for {
		c, err := l.Accept()
		if err != nil {
			return err
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			c.Close()
			return nil
		}
		t.conns[c] = true
		t.mu.Unlock()
		go t.handle(c)
	}
}

// ListenAndServe listens on addr and serves in a new goroutine, returning
// the bound address (useful with ":0").
func (t *Transport) ListenAndServe(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() {
		if err := t.Serve(l); err != nil {
			t.logf("%s server on %s stopped: %v", t.desc.Component, l.Addr(), err)
		}
	}()
	return l.Addr().String(), nil
}

// Close stops the listener and closes active connections.
func (t *Transport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	var err error
	if t.listener != nil {
		err = t.listener.Close()
	}
	for c := range t.conns {
		c.Close()
	}
	t.conns = make(map[net.Conn]bool)
	return err
}

func (t *Transport) removeConn(c net.Conn) {
	t.mu.Lock()
	delete(t.conns, c)
	t.mu.Unlock()
}

// request is one framed request: fields with tokens stripped, its
// consumed payload, and what the tokens carried.
type request struct {
	verb      Verb
	f         []string
	payload   []byte
	tag       uint64
	tagged    bool
	tc        obs.TraceContext
	traced    bool
	budget    time.Duration
	hasBudget bool
}

// handle runs one connection: serial until a PIPELINE grant, tagged
// after it.
func (t *Transport) handle(c net.Conn) {
	defer c.Close()
	defer t.removeConn(c)
	defer func() {
		if r := recover(); r != nil {
			log.Printf("%s: panic handling %v: %v", t.desc.Component, c.RemoteAddr(), r)
		}
	}()
	t.initMetrics()
	br := bufio.NewReaderSize(c, 64*1024)
	tw := &tagWriter{bw: bufio.NewWriterSize(c, 64*1024)}
	var slots chan struct{} // nil while serial
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		line, err := readLine(br)
		if err != nil {
			return // client hung up or sent an overlong line
		}
		r, ok := parseRequest(line, slots != nil)
		if !ok {
			// An untagged request on a pipelined connection cannot even be
			// answered addressably; drop the connection so the client
			// resynchronizes by redialing.
			return
		}
		if slots == nil && len(r.f) > 0 && r.f[0] == "PIPELINE" {
			// The mode switch. A refusal (disabled or malformed) is
			// protocol-fatal, exactly like an unknown verb on a depot that
			// predates PIPELINE, so clients read any ERR as "speak serial".
			granted, err := t.pipelineGrant(r.f)
			if tw.write(r, strconv.Itoa(granted), nil, err) != nil || err != nil {
				return
			}
			slots = make(chan struct{}, granted)
			continue
		}
		if err := t.frame(br, &r); err != nil {
			tw.write(r, "", nil, err)
			return
		}
		if slots == nil {
			t.serve(c, tw, r)
			continue
		}
		// Window backpressure: past the granted window the reader stops
		// pulling requests, which backs up into the client's TCP stream
		// and ultimately blocks its sender. The client-side Pipe bounds
		// itself too, so this only bites misbehaving clients.
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-slots }()
			t.serve(c, tw, r)
		}()
	}
}

// parseRequest splits one request line into fields and strips its
// optional trailing tokens: trace= names the caller's active span,
// deadline= carries its remaining budget, and tag= (pipelined mode only)
// addresses the response. They are emitted tag, deadline, trace, so they
// are stripped right to left before any argument-count check sees them.
// ok is false for a pipelined request without a tag.
func parseRequest(line string, pipelined bool) (r request, ok bool) {
	r.f = parseFields(line)
	r.f, r.tc, r.traced = obs.StripTraceToken(r.f)
	r.f, r.budget, r.hasBudget = obs.StripDeadlineToken(r.f)
	if !pipelined {
		return r, true
	}
	r.f, r.tag, r.tagged = StripTagToken(r.f)
	return r, r.tagged
}

// frame validates r's request line against the registered verb and
// consumes its payload. Any error is protocol-fatal.
func (t *Transport) frame(br *bufio.Reader, r *request) error {
	if len(r.f) == 0 {
		return fmt.Errorf("empty request: %w", ErrProto)
	}
	v, ok := t.verbs[r.f[0]]
	if !ok {
		return fmt.Errorf("unknown verb %s: %w", r.f[0], ErrProto)
	}
	if len(r.f) != v.Args+1 {
		return fmt.Errorf("%s wants %d args: %w", r.f[0], v.Args, ErrProto)
	}
	r.verb = v
	if !v.Payload {
		return nil
	}
	_, n, err := ParseRange(r.f)
	if err != nil {
		return err
	}
	r.payload = bufpool.Get(int(n))
	if _, err := io.ReadFull(br, r.payload); err != nil {
		bufpool.Put(r.payload)
		return err
	}
	return nil
}

// serve admits and executes one framed request and writes its response.
func (t *Transport) serve(c net.Conn, tw *tagWriter, r request) {
	if r.payload != nil {
		defer bufpool.Put(r.payload)
	}
	reg := t.registry()
	verb := r.f[0]
	var span *obs.Span
	sctx := context.Background()
	if r.traced {
		sctx, span = t.tracer().StartSpan(obs.ContextWithRemote(sctx, r.tc), t.desc.Span)
		span.SetAttr("op", verb)
		span.SetAttr("peer", c.RemoteAddr().String())
	}
	rctx, cancel := obs.DeadlineContext(sctx, r.budget, r.hasBudget)
	start := time.Now()
	var head string
	var body []byte
	release, err := t.acquire(rctx, reg)
	if err != nil {
		reason := overload.Reason(err)
		reg.Counter(obs.Label(t.desc.Shed, "reason", reason)).Inc()
		obs.DefaultLogger().Warn(context.Background(), obs.EvShed,
			"component", t.desc.Component, "reason", reason, "op", verb)
		err = fmt.Errorf("%s: %w", reason, ErrBusy)
	} else {
		// CPU attribution: a profile of a loaded server slices by
		// {class, verb}, and in pipelined mode the label also names the
		// worker goroutine in goroutine dumps. The wrapper is a no-op
		// (and alloc-free) until -metrics-addr turns the stack on.
		lctx := rctx
		if t.desc.ProfClass != "" {
			lctx = prof.Begin2(rctx, prof.KeyClass, t.desc.ProfClass, prof.KeyVerb, verb)
		}
		head, body, err = r.verb.Serve(lctx, r.f, r.payload)
		if t.desc.ProfClass != "" {
			prof.End(rctx)
		}
		release()
	}
	cancel()
	if err != nil {
		if t.desc.Errors != "" {
			reg.Counter(obs.Label(t.desc.Errors, "op", verb)).Inc()
		}
		span.SetAttr("err", "1")
		if t.desc.ServeErrEvent != "" {
			obs.DefaultLogger().Warn(sctx, t.desc.ServeErrEvent,
				"op", verb, "peer", c.RemoteAddr().String())
		}
	}
	// The span is recorded before the reply goes out, so a caller that
	// has read its reply finds the server side of its trace complete.
	span.Finish()
	werr := tw.write(r, head, body, err)
	if r.verb.PooledBody && body != nil {
		bufpool.Put(body)
	}
	reg.Histogram(obs.Label(t.desc.OpMs, "op", verb), obs.LatencyBucketsMs...).
		Observe(float64(time.Since(start)) / 1e6)
	if werr != nil {
		c.Close() // poisoned writer: tear the connection down, client redials
	}
}

// acquire runs one request through admission control and keeps the load
// gauges current. With Admission nil it still sheds requests whose
// propagated deadline budget is already exhausted — the client stopped
// waiting, so serving it only burns capacity.
func (t *Transport) acquire(ctx context.Context, reg *obs.Registry) (func(), error) {
	g := t.Admission
	if g == nil {
		if ctx.Err() != nil {
			return nil, &overload.ShedError{Reason: overload.ReasonDeadline}
		}
		return func() {}, nil
	}
	gauges := func() {
		if t.desc.Inflight != "" {
			reg.Gauge(t.desc.Inflight).Set(g.InFlight())
			reg.Gauge(t.desc.QueueDepth).Set(g.Queued())
		}
	}
	release, err := g.Acquire(ctx)
	gauges()
	if err != nil {
		return nil, err
	}
	return func() {
		release()
		gauges()
	}, nil
}

// pipelineGrant validates a PIPELINE handshake and returns the granted
// window: the smaller of the client's request, the server's
// PipelineWindow and maxPipelineWindow. An error is sent as ERR PROTO,
// which old and new clients alike read as "serial only".
func (t *Transport) pipelineGrant(f []string) (int, error) {
	if t.PipelineWindow < 0 {
		return 0, fmt.Errorf("pipelining disabled: %w", ErrProto)
	}
	if len(f) != 2 {
		return 0, fmt.Errorf("PIPELINE wants 1 arg: %w", ErrProto)
	}
	req, err := strconv.Atoi(f[1])
	if err != nil || req <= 0 {
		return 0, fmt.Errorf("bad PIPELINE window: %w", ErrProto)
	}
	max := t.PipelineWindow
	if max == 0 {
		max = DefaultPipelineWindow
	}
	return min(req, max, maxPipelineWindow), nil
}

// ParseRange parses the <offset> and <len> fields (f[2], f[3]) of a
// STORE, LOAD or COPY request, bounding the length at the largest
// payload one request may move.
func ParseRange(f []string) (offset, length int64, err error) {
	offset, err1 := strconv.ParseInt(f[2], 10, 64)
	length, err2 := strconv.ParseInt(f[3], 10, 64)
	if err1 != nil || err2 != nil || length < 0 || length > maxTransfer {
		return 0, 0, fmt.Errorf("bad %s numbers: %w", f[0], ErrProto)
	}
	return offset, length, nil
}

// tagWriter serializes responses from concurrently finishing requests
// onto one connection.
type tagWriter struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	err error
}

// write emits one response for r, prefixed "T<tag> " when r is tagged:
// "ERR <code> <message>" when err is set, else "OK <head>" and body. It
// flushes, and the first write error sticks and poisons the writer.
func (w *tagWriter) write(r request, head string, body []byte, err error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if r.tagged {
		w.bw.WriteString(responseTagPrefix)
		w.bw.WriteString(strconv.FormatUint(r.tag, 10))
		w.bw.WriteByte(' ')
	}
	if err != nil {
		writeErr(w.bw, err)
	} else {
		w.bw.WriteString("OK ")
		w.bw.WriteString(head)
		w.bw.WriteByte('\n')
		w.bw.Write(body)
	}
	// bufio.Writer errors are sticky, so Flush reports any of the above.
	w.err = w.bw.Flush()
	return w.err
}

// writeErr renders err as one "ERR <code> <message>" line.
func writeErr(w io.Writer, err error) {
	fmt.Fprintf(w, "ERR %s %s\n", codeOf(err), sanitize(err.Error()))
}

// sanitize keeps error messages single-line.
func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' || s[i] == '\r' {
			out = append(out, ' ')
			continue
		}
		out = append(out, s[i])
	}
	return string(out)
}

// readLine reads one \n-terminated line with a length cap.
func readLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return "", err
	}
	if len(line) > maxLineLen {
		return "", ErrProto
	}
	return line, nil
}
