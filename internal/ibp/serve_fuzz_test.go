package ibp_test

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"log"
	"net"
	"os"
	"regexp"
	"sync"
	"testing"
	"time"

	"lonviz/internal/edge"
	"lonviz/internal/ibp"
	"lonviz/internal/obs"
)

// responseLine is every line a server may answer: an optional "T<n> "
// tag, then OK or ERR with a known code.
var responseLine = regexp.MustCompile(
	`^(T[0-9]+ )?(OK( .*)?|ERR (NOCAP|EXPIRED|REVOKED|NOSPACE|DURATION|BADPARAM|RANGE|PROTO|BUSY|INTERNAL)( .*)?)$`)

// noDial refuses every connection: fuzzed COPY targets and edge origins
// must never reach a real network.
type noDial struct{}

func (noDial) Dial(addr string) (net.Conn, error) {
	return nil, errors.New("fuzz: dialing " + addr + " refused")
}

// pipeListener hands Serve the server ends of net.Pipe connections.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// requestConn is the transport's end of one fuzzed connection: reads
// come from the request bytes and hit EOF after them, as after a client's
// half-close, while responses travel back over a net.Pipe. Close signals
// that the serve goroutine for the connection has exited (the transport
// closes the connection as it returns).
type requestConn struct {
	net.Conn
	req    io.Reader
	once   sync.Once
	closed chan struct{}
}

func (c *requestConn) Read(p []byte) (int, error) { return c.req.Read(p) }

func (c *requestConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// panicWatch counts transport panic reports (the serve loop recovers
// and logs them).
type panicWatch struct {
	mu     sync.Mutex
	panics int
}

func (p *panicWatch) Write(b []byte) (int, error) {
	if bytes.Contains(b, []byte("panic")) {
		p.mu.Lock()
		p.panics++
		p.mu.Unlock()
	}
	return len(b), nil
}

func (p *panicWatch) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.panics
}

// FuzzServeRequest feeds arbitrary request bytes through the shared
// transport against both handler tables, once on a fresh connection and
// once after a PIPELINE handshake.
func FuzzServeRequest(f *testing.F) {
	pw := &panicWatch{}
	log.SetOutput(pw)
	f.Cleanup(func() { log.SetOutput(os.Stderr) })
	logger := obs.DefaultLogger()
	level := logger.Level()
	logger.SetLevel(obs.LevelError) // sheds and ERR answers warn per request
	f.Cleanup(func() { logger.SetLevel(level) })

	d, err := ibp.NewDepot(ibp.DepotConfig{Capacity: 1 << 20, MaxLease: time.Hour})
	if err != nil {
		f.Fatal(err)
	}
	depot := ibp.NewServer(d)
	depot.Obs, depot.Tracer, depot.CopyDialer = obs.NewRegistry(), obs.NewTracer(16), noDial{}
	cache, err := edge.NewCache(edge.CacheConfig{
		CapacityBytes: 1 << 20, Dialer: noDial{}, FillTimeout: time.Second, Obs: obs.NewRegistry(),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(cache.Close)
	edgeSrv := edge.NewServer(cache)
	edgeSrv.Obs, edgeSrv.Tracer = obs.NewRegistry(), obs.NewTracer(16)

	var listeners []*pipeListener
	for _, serve := range []func(net.Listener) error{depot.Serve, edgeSrv.Serve} {
		l := newPipeListener()
		listeners = append(listeners, l)
		go serve(l)
	}
	f.Cleanup(func() {
		depot.Close()
		edgeSrv.Close()
	})

	f.Fuzz(func(t *testing.T, req []byte) {
		for _, l := range listeners {
			for _, prefix := range []string{"", "PIPELINE 4\n"} {
				exchange(t, l, append([]byte(prefix), req...))
			}
		}
		if n := pw.count(); n > 0 {
			t.Fatalf("serve loop recovered %d panics", n)
		}
	})
}

// exchange serves req on a fresh connection, checks every response
// line, and waits for the serve goroutine to exit once the request bytes
// run out.
func exchange(t *testing.T, l *pipeListener, req []byte) {
	client, server := net.Pipe()
	defer client.Close()
	sc := &requestConn{Conn: server, req: bytes.NewReader(req), closed: make(chan struct{})}
	l.conns <- sc

	var bad []string
	read := make(chan struct{})
	go func() {
		defer close(read)
		br := bufio.NewReader(client)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return // the transport hung up
			}
			if !responseLine.MatchString(line[:len(line)-1]) {
				bad = append(bad, line)
			}
		}
	}()
	select {
	case <-sc.closed:
	case <-time.After(10 * time.Second):
		t.Fatal("serve goroutine still running after the request stream ended")
	}
	<-read
	for _, line := range bad {
		t.Errorf("response line %q is not OK, ERR <known code> or T<n>-tagged", line)
	}
}
