package dvs

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingDialer dials plain TCP and counts the connections it opens.
type countingDialer struct{ n atomic.Int64 }

func (d *countingDialer) Dial(addr string) (net.Conn, error) {
	d.n.Add(1)
	return net.Dial("tcp", addr)
}

func (d *countingDialer) dials() int64 { return d.n.Load() }

// serve starts s on a loopback port and closes it when the test ends.
func serve(t *testing.T, s *Server) string {
	t.Helper()
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return addr
}

// idleConns reports how many connections cl keeps for reuse.
func idleConns(cl *Client) int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return len(cl.idle)
}

// waitFor polls cond for up to a second.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestPoolReusesConnection(t *testing.T) {
	s := NewServer("")
	addr := serve(t, s)
	key := Key{Dataset: "d", ViewSet: "v"}
	if err := s.Put(key, []byte("<exnode/>")); err != nil {
		t.Fatal(err)
	}
	d := &countingDialer{}
	cl := &Client{Addr: addr, Dialer: d}
	for i := 0; i < 50; i++ {
		reps, err := cl.Get(context.Background(), key)
		if err != nil || len(reps) != 1 {
			t.Fatalf("get %d: %v, %d replicas", i, err, len(reps))
		}
	}
	if got := d.dials(); got != 1 {
		t.Errorf("50 sequential gets dialed %d times, want 1", got)
	}
	// MISS is a complete reply too: it keeps the connection.
	if _, err := cl.Get(context.Background(), Key{Dataset: "d", ViewSet: "none"}); !errors.Is(err, ErrMiss) {
		t.Fatalf("miss = %v", err)
	}
	if _, err := cl.AgentFor(context.Background(), "d"); !errors.Is(err, ErrMiss) {
		t.Fatalf("agent miss = %v", err)
	}
	if got := d.dials(); got != 1 {
		t.Errorf("misses redialed: %d dials, want 1", got)
	}
}

// scriptedDVS answers each request, on any connection, with the next of
// replies and keeps every connection open, so only the client decides
// whether a connection is reused.
func scriptedDVS(t *testing.T, replies ...string) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		next  int
		conns []net.Conn
		wg    sync.WaitGroup
	)
	t.Cleanup(func() {
		l.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				br := bufio.NewReader(c)
				for {
					if _, err := br.ReadString('\n'); err != nil {
						return
					}
					mu.Lock()
					reply := "ERR script exhausted\n"
					if next < len(replies) {
						reply = replies[next]
						next++
					}
					mu.Unlock()
					if _, err := io.WriteString(c, reply); err != nil {
						return
					}
				}
			}()
		}
	}()
	return l.Addr().String()
}

func TestPoolDropsConnectionAfterERR(t *testing.T) {
	addr := scriptedDVS(t, "ERR BUSY queue_full\n", "ERR boom\n", "MISS\n", "MISS\n")
	d := &countingDialer{}
	cl := &Client{Addr: addr, Dialer: d}
	key := Key{Dataset: "d", ViewSet: "v"}
	get := func(wantDials int64) error {
		t.Helper()
		_, err := cl.Get(context.Background(), key)
		if got := d.dials(); got != wantDials {
			t.Fatalf("after reply %v: %d dials, want %d", err, got, wantDials)
		}
		return err
	}
	// A shed connection is never reused, and neither is one that
	// answered any other ERR: each next request dials.
	if err := get(1); !errors.Is(err, ErrBusy) {
		t.Fatalf("first reply = %v, want ErrBusy", err)
	}
	if err := get(2); err == nil || errors.Is(err, ErrBusy) {
		t.Fatalf("second reply = %v, want a remote error", err)
	}
	// A MISS keeps the connection.
	if err := get(3); !errors.Is(err, ErrMiss) {
		t.Fatalf("third reply = %v, want ErrMiss", err)
	}
	if err := get(3); !errors.Is(err, ErrMiss) {
		t.Fatalf("fourth reply = %v, want ErrMiss", err)
	}
}

func TestPoolRedialsAfterServerRestart(t *testing.T) {
	key := Key{Dataset: "d", ViewSet: "v"}
	doc := []byte("<exnode/>")
	start := func(addr string) (*Server, string) {
		t.Helper()
		s := NewServer("")
		if err := s.Put(key, doc); err != nil {
			t.Fatal(err)
		}
		addr, err := s.ListenAndServe(addr)
		if err != nil {
			t.Fatal(err)
		}
		return s, addr
	}
	s, addr := start("127.0.0.1:0")
	defer func() { s.Close() }()
	d := &countingDialer{}
	cl := &Client{Addr: addr, Dialer: d}
	if _, err := cl.Get(context.Background(), key); err != nil {
		t.Fatal(err)
	}

	// The server restarts while the client's connection sits idle: the
	// next Get finds it dead before any reply byte and redials once.
	s.Close()
	s, _ = start(addr)
	if reps, err := cl.Get(context.Background(), key); err != nil || len(reps) != 1 {
		t.Fatalf("get after restart: %v, %d replicas", err, len(reps))
	}
	if got := d.dials(); got != 2 {
		t.Errorf("get after restart: %d dials, want 2", got)
	}

	// PUT appends, so it is never replayed: the caller sees the error.
	s.Close()
	s, _ = start(addr)
	if err := cl.Put(context.Background(), key, doc); err == nil {
		t.Fatal("put on a dead pooled connection succeeded")
	}
	if got := d.dials(); got != 2 {
		t.Errorf("failed put redialed: %d dials, want 2", got)
	}
	if err := cl.Put(context.Background(), key, doc); err != nil {
		t.Fatalf("put on a fresh connection: %v", err)
	}
	if reps, err := cl.Get(context.Background(), key); err != nil || len(reps) != 2 {
		t.Errorf("after one put: %v, %d replicas, want 2", err, len(reps))
	}
	if got := d.dials(); got != 3 {
		t.Errorf("%d dials, want 3", got)
	}
}

func TestPoolConcurrentGets(t *testing.T) {
	s := NewServer("")
	addr := serve(t, s)
	for g := 0; g < 8; g++ {
		key := Key{Dataset: "d", ViewSet: fmt.Sprintf("vs%d", g)}
		if err := s.Put(key, []byte(key.String())); err != nil {
			t.Fatal(err)
		}
	}
	cl := &Client{Addr: addr}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := Key{Dataset: "d", ViewSet: fmt.Sprintf("vs%d", g)}
			for i := 0; i < 25; i++ {
				reps, err := cl.Get(context.Background(), key)
				if err != nil || len(reps) != 1 || string(reps[0]) != key.String() {
					t.Errorf("get %v: %v, %q", key, err, reps)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := idleConns(cl); n < 1 || n > maxIdle {
		t.Errorf("%d idle connections, want 1..%d", n, maxIdle)
	}
}

func TestPoolCloseIdleReleasesServerHandlers(t *testing.T) {
	s := NewServer("")
	addr := serve(t, s)
	d := &countingDialer{}
	cl := &Client{Addr: addr, Dialer: d}
	if err := cl.RegisterAgent(context.Background(), "d", "sa:1"); err != nil {
		t.Fatal(err)
	}
	cl.CloseIdle()
	if n := idleConns(cl); n != 0 {
		t.Fatalf("%d idle connections after CloseIdle", n)
	}
	waitFor(t, "the server to drop the released connection", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.conns) == 0
	})
	// The client stays usable after CloseIdle.
	if got, err := cl.AgentFor(context.Background(), "d"); err != nil || got != "sa:1" {
		t.Fatalf("agent after CloseIdle = %q, %v", got, err)
	}
	if got := d.dials(); got != 2 {
		t.Errorf("%d dials, want 2", got)
	}
}

func TestServerCloseClosesConnections(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := NewServer("")
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// One exchange, so the connection's handler is certainly running.
	if _, err := io.WriteString(c, "AGENT d\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(c)
	if line, err := br.ReadString('\n'); err != nil || line != "MISS\n" {
		t.Fatalf("reply %q, %v", line, err)
	}
	s.Close()
	_ = c.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("read after server Close = %v, want EOF", err)
	}
	waitFor(t, "goroutines to return to baseline", func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}

func TestLargeExNodeWire(t *testing.T) {
	_, cl := startDVS(t, "")
	key := Key{Dataset: "d", ViewSet: "big"}
	big := []byte("<exnode>" + strings.Repeat("<mapping/>", 10<<10) + "</exnode>")
	if len(big) <= 64<<10 {
		t.Fatalf("document is only %d bytes", len(big))
	}
	if err := cl.Replace(context.Background(), key, big); err != nil {
		t.Fatal(err)
	}
	// Twice: the second reply rides the connection the first left pooled.
	for i := 0; i < 2; i++ {
		reps, err := cl.Get(context.Background(), key)
		if err != nil || len(reps) != 1 || !bytes.Equal(reps[0], big) {
			t.Fatalf("get %d: %v, %d replicas", i, err, len(reps))
		}
	}
}

func TestHierarchyReusesParentConnections(t *testing.T) {
	root := NewServer("")
	rootAddr := serve(t, root)
	midDials, leafDials, clientDials := &countingDialer{}, &countingDialer{}, &countingDialer{}
	mid := NewServer(rootAddr)
	mid.Dialer = midDials
	midAddr := serve(t, mid)
	leaf := NewServer(midAddr)
	leaf.Dialer = leafDials
	leafAddr := serve(t, leaf)
	cl := &Client{Addr: leafAddr, Dialer: clientDials}

	// 20 distinct keys, each a miss at the leaf and the mid level: the
	// even ones resolve at the root, the odd ones miss everywhere.
	for i := 0; i < 20; i++ {
		key := Key{Dataset: "d", ViewSet: fmt.Sprintf("vs%02d", i)}
		if i%2 == 0 {
			if err := root.Put(key, []byte("<exnode/>")); err != nil {
				t.Fatal(err)
			}
		}
		reps, err := cl.Get(context.Background(), key)
		if i%2 == 0 && (err != nil || len(reps) != 1) {
			t.Fatalf("%v: %v, %d replicas", key, err, len(reps))
		}
		if i%2 == 1 && !errors.Is(err, ErrMiss) {
			t.Fatalf("%v: err = %v, want a miss", key, err)
		}
	}
	for name, d := range map[string]*countingDialer{"client->leaf": clientDials, "leaf->mid": leafDials, "mid->root": midDials} {
		if got := d.dials(); got != 1 {
			t.Errorf("%s: %d dials for 20 lookups, want 1", name, got)
		}
	}
}

// silentDVS accepts connections and reads requests but never answers,
// like a parent level that has stopped responding.
func silentDVS(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		l.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				io.Copy(io.Discard, c)
			}()
		}
	}()
	return l.Addr().String()
}

func TestServerCloseInterruptsUpstreamQuery(t *testing.T) {
	leaf := NewServer(silentDVS(t))
	addr, err := leaf.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &Client{Addr: addr}
	done := make(chan error, 1)
	go func() {
		_, err := cl.Get(context.Background(), Key{Dataset: "d", ViewSet: "v"})
		done <- err
	}()
	// Let the leaf forward the miss to its silent parent.
	waitFor(t, "the leaf to dial its parent", func() bool {
		leaf.mu.Lock()
		defer leaf.mu.Unlock()
		return leaf.parent != nil
	})
	closed := make(chan struct{})
	go func() {
		leaf.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close still waiting on the upstream query after 1s")
	}
	if err := <-done; err == nil {
		t.Fatal("get through a closed leaf succeeded")
	}
}

func TestGetCancelInterruptsExchange(t *testing.T) {
	cl := &Client{Addr: silentDVS(t)}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	_, err := cl.Get(ctx, Key{Dataset: "d", ViewSet: "v"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("get = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("cancelled get took %v", d)
	}
	if n := idleConns(cl); n != 0 {
		t.Errorf("%d idle connections after a cancelled exchange", n)
	}
}
