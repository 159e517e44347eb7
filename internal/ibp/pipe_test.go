package ibp

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lonviz/internal/obs"
)

// allocStore is the usual setup: one allocation filled with a known
// pattern through the serial client.
func allocStore(t *testing.T, cl *Client, n int) (Capabilities, []byte) {
	t.Helper()
	ctx := context.Background()
	caps, err := cl.Allocate(ctx, int64(n), time.Minute, Stable)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := cl.Store(ctx, caps.Write, 0, data); err != nil {
		t.Fatal(err)
	}
	return caps, data
}

func TestPipelinedLoadRoundTrip(t *testing.T) {
	addr, cl, _ := startDepotServer(t, 1<<20)
	caps, data := allocStore(t, cl, 64*1024)

	ctx := context.Background()
	p, err := DialPipe(ctx, addr, nil, 8, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Window() != 8 {
		t.Fatalf("granted window = %d, want 8", p.Window())
	}
	// Many concurrent loads over one connection, each into its own
	// destination slice.
	var wg sync.WaitGroup
	errs := make([]error, 32)
	got := make([][]byte, 32)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			off := (i % 16) * 4096
			dst := make([]byte, 4096)
			errs[i] = p.Load(ctx, caps.Read, int64(off), dst)
			got[i] = dst
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
		off := (i % 16) * 4096
		if !bytes.Equal(got[i], data[off:off+4096]) {
			t.Fatalf("load %d: payload mismatch", i)
		}
	}
}

func TestPipelinedStoreAndProbe(t *testing.T) {
	addr, cl, _ := startDepotServer(t, 1<<20)
	ctx := context.Background()
	caps, err := cl.Allocate(ctx, 8192, time.Minute, Stable)
	if err != nil {
		t.Fatal(err)
	}
	p, err := DialPipe(ctx, addr, nil, 4, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	payload := []byte(strings.Repeat("x", 8192))
	if err := p.Store(ctx, caps.Write, 0, payload); err != nil {
		t.Fatal(err)
	}
	info, err := p.Probe(ctx, caps.Manage)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 8192 {
		t.Fatalf("probe size = %d", info.Size)
	}
	// Verify through the serial path that the pipelined STORE landed.
	back, err := cl.Load(ctx, caps.Read, 0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, payload) {
		t.Fatal("pipelined STORE payload mismatch")
	}
}

func TestPipelinedErrorsAreTypedAndNonFatal(t *testing.T) {
	addr, cl, _ := startDepotServer(t, 1<<20)
	caps, data := allocStore(t, cl, 4096)
	ctx := context.Background()
	p, err := DialPipe(ctx, addr, nil, 4, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// A bad capability fails just that request with the typed error...
	err = p.Load(ctx, "nosuchcap", 0, make([]byte, 16))
	if !errors.Is(err, ErrNoCap) {
		t.Fatalf("bad cap error = %v, want ErrNoCap", err)
	}
	// ...and the pipe keeps working.
	dst := make([]byte, 4096)
	if err := p.Load(ctx, caps.Read, 0, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("payload mismatch after error")
	}
}

// TestPipelinedOutOfOrderResponses drives the client against a scripted
// server that answers tags in reverse order, proving the tag matcher
// does not assume FIFO completion.
func TestPipelinedOutOfOrderResponses(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		br := bufio.NewReader(c)
		line, _ := br.ReadString('\n') // PIPELINE handshake
		if !strings.HasPrefix(line, "PIPELINE") {
			return
		}
		fmt.Fprintf(c, "OK 8\n")
		// Collect two tagged LOADs, then answer them newest-first.
		type req struct {
			tag string
			n   int
		}
		var reqs []req
		for len(reqs) < 2 {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			f := strings.Fields(line)
			// LOAD <cap> <off> <len> tag=<n>
			var n int
			fmt.Sscanf(f[3], "%d", &n)
			tag := strings.TrimPrefix(f[4], "tag=")
			reqs = append(reqs, req{tag: tag, n: n})
		}
		for i := len(reqs) - 1; i >= 0; i-- {
			fmt.Fprintf(c, "T%s OK %d\n", reqs[i].tag, reqs[i].n)
			c.Write(bytes.Repeat([]byte{byte('A' + i)}, reqs[i].n))
		}
		// Hold the connection open until the client is done.
		br.ReadString('\n')
	}()

	ctx := context.Background()
	p, err := DialPipe(ctx, l.Addr().String(), nil, 8, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var wg sync.WaitGroup
	dsts := [][]byte{make([]byte, 100), make([]byte, 200)}
	errs := make([]error, 2)
	for i := range dsts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Issue in tag order by staggering: tag assignment is inside
			// do(), so serialize issuance while letting both wait.
			errs[i] = p.Load(ctx, "cap", 0, dsts[i])
		}(i)
		time.Sleep(50 * time.Millisecond) // ensure deterministic tag order 1,2
	}
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("loads failed: %v %v", errs[0], errs[1])
	}
	// Tag 1 (len 100) was answered second with byte 'A'; tag 2 (len 200)
	// first with byte 'B'.
	if dsts[0][0] != 'A' || dsts[0][99] != 'A' {
		t.Fatalf("first request got wrong payload byte %q", dsts[0][0])
	}
	if dsts[1][0] != 'B' || dsts[1][199] != 'B' {
		t.Fatalf("second request got wrong payload byte %q", dsts[1][0])
	}
}

// TestPipeWindowBackpressure proves the client-side window bounds
// in-flight requests: with a window of 2 and a server that stalls, a
// third request must block until a slot frees, then fail cleanly when
// the pipe is torn down.
func TestPipeWindowBackpressure(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	released := make(chan struct{})
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		br := bufio.NewReader(c)
		br.ReadString('\n')
		fmt.Fprintf(c, "OK 2\n")
		// Swallow requests without answering until released.
		go func() {
			for {
				if _, err := br.ReadString('\n'); err != nil {
					return
				}
			}
		}()
		<-released
	}()
	ctx := context.Background()
	p, err := DialPipe(ctx, l.Addr().String(), nil, 2, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer close(released)
	defer p.Close()

	// Fill the window with two requests that will never be answered.
	for i := 0; i < 2; i++ {
		go p.Load(ctx, "cap", 0, make([]byte, 8))
	}
	time.Sleep(100 * time.Millisecond)

	// The third must still be waiting for a slot when its short ctx
	// expires — proving it never hit the wire past the window.
	sctx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
	defer cancel()
	var third atomic.Value
	done := make(chan struct{})
	go func() {
		third.Store(p.Load(sctx, "cap", 0, make([]byte, 8)))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("third request did not return after ctx expiry")
	}
	if err, _ := third.Load().(error); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("third request error = %v, want ctx deadline (blocked on window)", err)
	}
}

// TestPipeMidstreamDrop kills the connection (via netsim fault
// injection) while loads are in flight: every waiter must fail with
// ErrPipeBroken, and a PipePool must recover by redialing.
func TestPipeMidstreamDrop(t *testing.T) {
	addr, cl, _ := startDepotServer(t, 1<<20)
	caps, _ := allocStore(t, cl, 256*1024)
	ctx := context.Background()

	// Dial directly with a raw dialer we can sever: wrap the conn.
	sever := &severDialer{}
	p, err := DialPipe(ctx, addr, sever, 8, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Cut the wire, then issue loads: all must fail with ErrPipeBroken
	// (either on write or via the reader's failure fanout).
	var wg sync.WaitGroup
	errs := make([]error, 4)
	sever.sever()
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = p.Load(ctx, caps.Read, 0, make([]byte, 4096))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("load %d succeeded over a severed pipe", i)
		}
		if !errors.Is(err, ErrPipeBroken) && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("load %d error = %v, want ErrPipeBroken", i, err)
		}
	}
	if p.Broken() == nil {
		t.Fatal("pipe not marked broken after connection drop")
	}

	// A pool recovers: the broken pipe is dropped and the next op
	// redials a healthy connection.
	pool := &PipePool{Window: 8, Obs: obs.NewRegistry()}
	dst := make([]byte, 4096)
	if err := pool.LoadInto(ctx, addr, caps.Read, 0, dst); err != nil {
		t.Fatalf("pool load after drop: %v", err)
	}
	if pool.Mode(addr) != "pipelined" {
		t.Fatalf("pool mode = %q, want pipelined", pool.Mode(addr))
	}
}

// severDialer hands out connections whose underlying socket it can
// close on demand.
type severDialer struct {
	mu    sync.Mutex
	conns []net.Conn
}

func (d *severDialer) Dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.conns = append(d.conns, c)
	d.mu.Unlock()
	return c, nil
}

func (d *severDialer) sever() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.conns {
		c.Close()
	}
	d.conns = nil
}

// TestPipePoolSerialFallback pins the back-compat contract: against a
// depot that predates PIPELINE (simulated by a server with pipelining
// disabled), the pool detects the refusal once, pins the depot serial,
// and every subsequent load still succeeds over one-shot connections.
func TestPipePoolSerialFallback(t *testing.T) {
	d, err := NewDepot(DepotConfig{Capacity: 1 << 20, MaxLease: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(d)
	srv.PipelineWindow = -1 // old-protocol behavior: PIPELINE answers ERR
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl := &Client{Addr: addr}
	caps, data := allocStore(t, cl, 4096)

	reg := obs.NewRegistry()
	pool := &PipePool{Window: 8, Obs: reg}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		dst := make([]byte, 4096)
		if err := pool.LoadInto(ctx, addr, caps.Read, 0, dst); err != nil {
			t.Fatalf("serial-fallback load %d: %v", i, err)
		}
		if !bytes.Equal(dst, data) {
			t.Fatalf("serial-fallback load %d: payload mismatch", i)
		}
	}
	if pool.Mode(addr) != "serial" {
		t.Fatalf("pool mode = %q, want serial", pool.Mode(addr))
	}
	// Exactly one handshake attempt, three serial ops.
	if got := reg.Counter(obs.MIBPPipeFallbacks).Value(); got != 1 {
		t.Fatalf("fallbacks = %d, want 1", got)
	}
	if got := reg.Counter(obs.Label(obs.MIBPPipeOps, "mode", "serial")).Value(); got != 3 {
		t.Fatalf("serial ops = %d, want 3", got)
	}
}
