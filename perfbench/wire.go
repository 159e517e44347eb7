package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lonviz/internal/netsim"
)

// wireCounter accumulates the traffic of one class of connections, as
// seen from the side that wraps them.
type wireCounter struct {
	conns   atomic.Int64 // dials or accepts
	read    atomic.Int64 // bytes read
	written atomic.Int64 // bytes written
	// waitNs sums request-to-response waits: from the first write that
	// is still unanswered to the next read that returns bytes. On a
	// persistent pipelined connection this is time spent waiting on the
	// peer, not idle time between requests.
	waitNs atomic.Int64

	mu       sync.Mutex
	firstRTT []float64 // ms from first write to first read, per connection
}

// wireSnap is a point-in-time copy of a wireCounter.
type wireSnap struct {
	Conns, Read, Written, WaitNs int64
}

func (c *wireCounter) snap() wireSnap {
	return wireSnap{c.conns.Load(), c.read.Load(), c.written.Load(), c.waitNs.Load()}
}

func (s wireSnap) sub(o wireSnap) wireSnap {
	return wireSnap{s.Conns - o.Conns, s.Read - o.Read, s.Written - o.Written, s.WaitNs - o.WaitNs}
}

// bytes is the traffic in both directions.
func (s wireSnap) bytes() int64 { return s.Read + s.Written }

// rttSince returns the first-round-trip samples recorded after the
// first skip connections.
func (c *wireCounter) rttSince(skip int) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if skip > len(c.firstRTT) {
		skip = len(c.firstRTT)
	}
	return append([]float64(nil), c.firstRTT[skip:]...)
}

func (c *wireCounter) rttCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.firstRTT)
}

// countingConn feeds every byte it carries into its counters and, when
// tracing, records one span covering the connection's life.
type countingConn struct {
	net.Conn
	counters []*wireCounter
	span     *spanHandle

	mu        sync.Mutex
	pending   time.Time // first unanswered write
	sawFirst  bool
	closeOnce sync.Once
}

func newCountingConn(c net.Conn, span *spanHandle, counters ...*wireCounter) *countingConn {
	for _, k := range counters {
		k.conns.Add(1)
	}
	return &countingConn{Conn: c, counters: counters, span: span}
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		now := time.Now()
		c.mu.Lock()
		var wait time.Duration
		first := false
		if !c.pending.IsZero() {
			wait = now.Sub(c.pending)
			c.pending = time.Time{}
			if !c.sawFirst {
				c.sawFirst = true
				first = true
			}
		}
		c.mu.Unlock()
		for _, k := range c.counters {
			k.read.Add(int64(n))
			if wait > 0 {
				k.waitNs.Add(int64(wait))
			}
			if first {
				k.mu.Lock()
				k.firstRTT = append(k.firstRTT, float64(wait)/1e6)
				k.mu.Unlock()
			}
		}
	}
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	if c.pending.IsZero() {
		c.pending = time.Now()
	}
	c.mu.Unlock()
	n, err := c.Conn.Write(b)
	for _, k := range c.counters {
		k.written.Add(int64(n))
	}
	return n, err
}

func (c *countingConn) Close() error {
	c.closeOnce.Do(c.span.end)
	return c.Conn.Close()
}

// route names one class of dialed connections and the counters it feeds.
type route struct {
	counters []*wireCounter
	span     string
}

// countingDialer wraps the deployment's netsim dialer: it keeps the
// netsim shaping (and its shared WAN bucket) and adds per-route byte
// counting. classify picks the counters for each destination.
type countingDialer struct {
	net      *netsim.Dialer
	classify func(addr string) route
	tr       *traceRef
}

// Dial implements ibp.Dialer and dvs.Dialer.
func (d *countingDialer) Dial(addr string) (net.Conn, error) {
	c, err := d.net.Dial(addr)
	if err != nil {
		return nil, err
	}
	r := d.classify(addr)
	return newCountingConn(c, d.tr.get().start(r.span, 0), r.counters...), nil
}

// countingListener counts the server side of a depot or edge: accepted
// connections and the bytes they carry.
type countingListener struct {
	net.Listener
	counter *wireCounter
	span    string
	trace   *traceRef
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return newCountingConn(c, l.trace.get().start(l.span, 0), l.counter), nil
}
