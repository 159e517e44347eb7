package ibp_test

// One conformance table for every server on the framed transport: the
// depot and the edge cache, each spoken to serially and after a PIPELINE
// handshake. A behaviour the transport owns must read the same on all
// four.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"lonviz/internal/bufpool"
	"lonviz/internal/edge"
	"lonviz/internal/ibp"
	"lonviz/internal/obs"
	"lonviz/internal/overload"
)

// entrySize is one bufpool size class, so a cached entry wrongly handed
// to bufpool.Put would come straight back out of the next Get.
const entrySize = 4096

// server is one running server under test.
type server struct {
	addr  string
	load  string // a LOAD request line that succeeds
	body  []byte // the bytes it answers
	store string // a STORE request line taking body as payload; "" on the edge
	reg   *obs.Registry
	trc   *obs.Tracer
	admit func(*overload.Gate) // installs an admission gate
	opMs  string
	shed  string
	span  string
}

// target starts one kind of server with no admission gate, a private
// registry and a private tracer, granting pipelined windows of up to
// 1000.
type target struct {
	name  string
	start func(t *testing.T) *server
}

// startOrigin runs a depot holding one allocation of entrySize bytes;
// configure, if set, adjusts the server before it starts serving.
func startOrigin(t *testing.T, configure func(*ibp.Server)) (string, ibp.Capabilities, []byte) {
	t.Helper()
	d, err := ibp.NewDepot(ibp.DepotConfig{Capacity: 1 << 20, MaxLease: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	caps, err := d.Allocate(entrySize, time.Hour, ibp.Stable)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, entrySize)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	if err := d.Store(caps.Write, 0, data); err != nil {
		t.Fatal(err)
	}
	srv := ibp.NewServer(d)
	srv.Obs = obs.NewRegistry()
	if configure != nil {
		configure(srv)
	}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, caps, data
}

func newServer(opMs, shed, span string) *server {
	return &server{
		reg:  obs.NewRegistry(),
		trc:  obs.NewTracer(64),
		opMs: opMs,
		shed: shed,
		span: span,
	}
}

var targets = []target{
	{"depot", func(t *testing.T) *server {
		s := newServer(obs.MIBPServerOpMs, obs.MIBPShed, obs.SpanIBPServe)
		addr, caps, data := startOrigin(t, func(srv *ibp.Server) {
			srv.Obs, srv.Tracer, srv.PipelineWindow = s.reg, s.trc, 1000
			s.admit = func(g *overload.Gate) { srv.Admission = g }
		})
		s.addr, s.body = addr, data
		s.load = fmt.Sprintf("LOAD %s 0 %d", caps.Read, entrySize)
		s.store = fmt.Sprintf("STORE %s 0 %d", caps.Write, entrySize)
		return s
	}},
	{"edge", func(t *testing.T) *server {
		origin, caps, data := startOrigin(t, nil)
		s := newServer(obs.MEdgeServeMs, obs.MEdgeShed, obs.SpanEdgeServe)
		cache, err := edge.NewCache(edge.CacheConfig{CapacityBytes: 1 << 20, Obs: s.reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cache.Close)
		srv := edge.NewServer(cache)
		srv.Obs, srv.Tracer, srv.PipelineWindow = s.reg, s.trc, 1000
		s.admit = func(g *overload.Gate) { srv.Admission = g }
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		s.addr, s.body = addr, data
		cp := edge.Cap{Hint: "r00c00", OriginDepot: origin, OriginCap: caps.Read}
		s.load = fmt.Sprintf("LOAD %s 0 %d", cp.Encode(), entrySize)
		return s
	}},
}

// wire speaks the protocol by hand on one connection, tagging requests
// once pipelined.
type wire struct {
	t      *testing.T
	c      net.Conn
	br     *bufio.Reader
	tagged bool
	tag    uint64
}

func dial(t *testing.T, addr string, pipelined bool) *wire {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(5 * time.Second))
	w := &wire{t: t, c: c, br: bufio.NewReader(c)}
	if pipelined {
		w.raw("PIPELINE 4\n")
		if line := w.line(); line != "OK 4" {
			t.Fatalf("PIPELINE 4 answered %q, want OK 4", line)
		}
		w.tagged = true
	}
	return w
}

func (w *wire) raw(s string) {
	w.t.Helper()
	if _, err := io.WriteString(w.c, s); err != nil {
		w.t.Fatal(err)
	}
}

func (w *wire) line() string {
	w.t.Helper()
	line, err := w.br.ReadString('\n')
	if err != nil {
		w.t.Fatalf("reading response: %v", err)
	}
	return strings.TrimSuffix(line, "\n")
}

// send writes one request: the line, its tag when pipelined, then any
// deadline=/trace= tokens, in wire order.
func (w *wire) send(req string, toks ...string) {
	w.t.Helper()
	line := req
	if w.tagged {
		w.tag++
		line += " tag=" + strconv.FormatUint(w.tag, 10)
	}
	for _, tok := range toks {
		line += " " + tok
	}
	w.raw(line + "\n")
}

// recv reads the status line answering the last request, checking and
// stripping its tag.
func (w *wire) recv() string {
	w.t.Helper()
	status := w.line()
	if w.tagged {
		want := "T" + strconv.FormatUint(w.tag, 10) + " "
		if !strings.HasPrefix(status, want) {
			w.t.Fatalf("response %q, want tag prefix %q", status, want)
		}
		status = strings.TrimPrefix(status, want)
	}
	return status
}

// recvLoad reads an OK LOAD answer and its body.
func (w *wire) recvLoad() []byte {
	w.t.Helper()
	status := w.recv()
	f := strings.Fields(status)
	if len(f) != 2 || f[0] != "OK" {
		w.t.Fatalf("LOAD answered %q, want OK <len>", status)
	}
	n, _ := strconv.Atoi(f[1])
	body := make([]byte, n)
	if _, err := io.ReadFull(w.br, body); err != nil {
		w.t.Fatal(err)
	}
	return body
}

func (w *wire) expect(prefix string) {
	w.t.Helper()
	if status := w.recv(); !strings.HasPrefix(status, prefix) {
		w.t.Fatalf("response %q, want prefix %q", status, prefix)
	}
}

// expectClosed asserts the server hung up without answering further.
func (w *wire) expectClosed() {
	w.t.Helper()
	line, err := w.br.ReadString('\n')
	if err == nil {
		w.t.Fatalf("connection still open, read %q", line)
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		w.t.Fatal("connection still open: read timed out")
	}
}

// loadOK issues the server's LOAD and checks the body.
func (w *wire) loadOK(s *server) {
	w.t.Helper()
	w.send(s.load)
	if body := w.recvLoad(); !bytes.Equal(body, s.body) {
		w.t.Fatal("LOAD body mismatch")
	}
}

// eventually polls cond: spans and histograms are recorded just after
// the response is written.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

var conformance = []struct {
	name string
	only string // "serial" or "pipelined" restricts the case to one mode
	run  func(t *testing.T, s *server, w *wire)
}{
	{"garbage", "", func(t *testing.T, s *server, w *wire) {
		w.send("FROBNICATE all the things")
		w.expect("ERR PROTO")
		w.expectClosed()
	}},
	{"empty_line", "", func(t *testing.T, s *server, w *wire) {
		w.send("")
		w.expect("ERR PROTO")
		w.expectClosed()
	}},
	{"bad_arg_count", "", func(t *testing.T, s *server, w *wire) {
		w.send("STATUS extra")
		w.expect("ERR PROTO")
		w.expectClosed()
	}},
	{"pipeline_grant_cap", "serial", func(t *testing.T, s *server, w *wire) {
		// Both servers run with PipelineWindow 1000; the grant still obeys
		// the protocol's 256 cap.
		w.raw("PIPELINE 1000\n")
		if line := w.line(); line != "OK 256" {
			t.Fatalf("PIPELINE 1000 answered %q, want OK 256", line)
		}
	}},
	{"untagged_on_pipe", "pipelined", func(t *testing.T, s *server, w *wire) {
		w.raw("STATUS\n")
		w.expectClosed()
	}},
	{"shed_keeps_connection", "", func(t *testing.T, s *server, w *wire) {
		// One execution slot, no queue, and the slot held out of band.
		gate := overload.NewGate(1, 0, 50*time.Millisecond)
		s.admit(gate)
		release, err := gate.Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		w.send(s.load)
		w.expect("ERR BUSY " + overload.ReasonQueueFull)
		if s.store != "" {
			// The payload is consumed before admission, so a shed STORE
			// leaves the stream framed.
			w.send(s.store)
			w.raw(string(s.body))
			w.expect("ERR BUSY " + overload.ReasonQueueFull)
		}
		release()
		w.loadOK(s)
		if got := s.reg.Counter(obs.Label(s.shed, "reason", overload.ReasonQueueFull)).Value(); got == 0 {
			t.Fatal("shed not counted")
		}
	}},
	{"exhausted_deadline", "", func(t *testing.T, s *server, w *wire) {
		// No admission gate: an exhausted budget sheds regardless.
		w.send("STATUS", "deadline=0")
		w.expect("ERR BUSY " + overload.ReasonDeadline)
		// A generous budget passes the argument-count checks untouched,
		// and the connection survived the shed.
		w.send("STATUS", "deadline=5000")
		if status := w.recv(); len(strings.Fields(status)) != 4 || !strings.HasPrefix(status, "OK ") {
			t.Fatalf("generous-budget STATUS = %q, want OK <capacity> <used> <count>", status)
		}
		w.loadOK(s)
	}},
	{"trace_parent", "", func(t *testing.T, s *server, w *wire) {
		w.send("STATUS", "trace=00000000000000ab/00000000000000cd")
		w.expect("OK ")
		var recs []obs.SpanRecord
		eventually(t, "server span", func() bool {
			recs = s.trc.Export(0xab)
			return len(recs) == 1
		})
		if r := recs[0]; r.Name != s.span || r.ParentID != 0xcd || !r.Remote {
			t.Fatalf("span %q parent %x remote=%v, want %q under cd, remote", r.Name, r.ParentID, r.Remote, s.span)
		}
	}},
	{"op_histogram", "", func(t *testing.T, s *server, w *wire) {
		w.loadOK(s)
		w.send("STATUS")
		w.expect("OK ")
		for _, op := range []string{"LOAD", "STATUS"} {
			h := s.reg.Histogram(obs.Label(s.opMs, "op", op), obs.LatencyBucketsMs...)
			eventually(t, s.opMs+" "+op, func() bool { return h.Count() == 1 })
		}
	}},
	{"load_body_survives_pool_churn", "", func(t *testing.T, s *server, w *wire) {
		for i := 0; i < 4; i++ {
			w.loadOK(s)
		}
		// A LOAD body wrongly recycled into the pool comes back out of
		// one of these Gets and is scribbled over.
		bufs := make([][]byte, 64)
		for i := range bufs {
			bufs[i] = bufpool.Get(entrySize)
			for j := range bufs[i] {
				bufs[i][j] = 0xee
			}
		}
		for _, b := range bufs {
			bufpool.Put(b)
		}
		w.loadOK(s)
	}},
}

func TestServeConformance(t *testing.T) {
	for _, tg := range targets {
		for _, mode := range []string{"serial", "pipelined"} {
			for _, c := range conformance {
				if c.only != "" && c.only != mode {
					continue
				}
				t.Run(tg.name+"/"+mode+"/"+c.name, func(t *testing.T) {
					s := tg.start(t)
					c.run(t, s, dial(t, s.addr, mode == "pipelined"))
				})
			}
		}
	}
}
