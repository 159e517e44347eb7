package ibp

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"lonviz/internal/bufpool"
	"lonviz/internal/obs"
)

// transport is embedded under an unexported name, so Server gains the
// transport's settings and methods without an exported Transport field.
type transport = Transport

// Server exposes a Depot over the wire protocol. The embedded transport
// carries the serving settings (PipelineWindow, Admission, Logf, Obs,
// Tracer) and Serve, ListenAndServe and Close.
type Server struct {
	*transport
	Depot *Depot
	// CopyDialer dials target depots for third-party COPY; nil means plain
	// TCP. Third-party transfers are the mechanism behind the paper's
	// aggressive prestaging: "all such LoN operations take place as third
	// party communication without consuming resources on either the client
	// or the client agent".
	CopyDialer Dialer
}

// depotServe names the depot's telemetry: ibp.server.* families, the
// ibp.serve span, ibp.serve_err events and the class=ibp prof label.
var depotServe = ServeDesc{
	Component:     "ibp",
	OpMs:          obs.MIBPServerOpMs,
	Span:          obs.SpanIBPServe,
	Shed:          obs.MIBPShed,
	Errors:        obs.MIBPServerErrors,
	Inflight:      obs.MIBPInflight,
	QueueDepth:    obs.MIBPQueueDepth,
	ServeErrEvent: obs.EvIBPServeErr,
	ProfClass:     "ibp",
}

// NewServer wraps a depot.
func NewServer(d *Depot) *Server {
	s := &Server{Depot: d}
	s.transport = NewTransport(depotServe, map[string]Verb{
		"ALLOCATE": {Args: 3, Serve: s.allocate},
		"STORE":    {Args: 3, Payload: true, Serve: s.store},
		"LOAD":     {Args: 3, PooledBody: true, Serve: s.load},
		"PROBE":    {Args: 1, Serve: s.probe},
		"EXTEND":   {Args: 2, Serve: s.extend},
		"FREE":     {Args: 1, Serve: s.free},
		"COPY":     {Args: 6, Serve: s.copy},
		"STATUS":   {Serve: s.status},
	})
	return s
}

func (s *Server) allocate(_ context.Context, f []string, _ []byte) (string, []byte, error) {
	size, err1 := strconv.ParseInt(f[1], 10, 64)
	leaseMs, err2 := strconv.ParseInt(f[2], 10, 64)
	if err1 != nil || err2 != nil {
		return "", nil, fmt.Errorf("bad ALLOCATE numbers: %w", ErrProto)
	}
	caps, err := s.Depot.Allocate(size, time.Duration(leaseMs)*time.Millisecond, Policy(f[3]))
	if err != nil {
		return "", nil, err
	}
	return caps.Read + " " + caps.Write + " " + caps.Manage, nil, nil
}

// store writes a payload the transport has already consumed (and will
// recycle): the depot copies it into its backing store.
func (s *Server) store(_ context.Context, f []string, data []byte) (string, []byte, error) {
	offset, _, _ := ParseRange(f) // validated before the payload was read
	if err := s.Depot.Store(f[1], offset, data); err != nil {
		return "", nil, err
	}
	return strconv.Itoa(len(data)), nil, nil
}

// load reads into a pooled wire buffer, which the transport returns to
// the pool once it has been written to the socket.
func (s *Server) load(_ context.Context, f []string, _ []byte) (string, []byte, error) {
	offset, length, err := ParseRange(f)
	if err != nil {
		return "", nil, err
	}
	data := bufpool.Get(int(length))
	if err := s.Depot.LoadInto(f[1], offset, data); err != nil {
		bufpool.Put(data)
		return "", nil, err
	}
	return strconv.Itoa(len(data)), data, nil
}

func (s *Server) probe(_ context.Context, f []string, _ []byte) (string, []byte, error) {
	info, err := s.Depot.Probe(f[1])
	if err != nil {
		return "", nil, err
	}
	return fmt.Sprintf("%d %d %s", info.Size, info.Expires.UnixMilli(), info.Policy), nil, nil
}

func (s *Server) extend(_ context.Context, f []string, _ []byte) (string, []byte, error) {
	leaseMs, err := strconv.ParseInt(f[2], 10, 64)
	if err != nil {
		return "", nil, fmt.Errorf("bad EXTEND lease: %w", ErrProto)
	}
	exp, err := s.Depot.Extend(f[1], time.Duration(leaseMs)*time.Millisecond)
	if err != nil {
		return "", nil, err
	}
	return strconv.FormatInt(exp.UnixMilli(), 10), nil, nil
}

func (s *Server) free(_ context.Context, f []string, _ []byte) (string, []byte, error) {
	if err := s.Depot.Free(f[1]); err != nil {
		return "", nil, err
	}
	return "0", nil, nil
}

// copy implements third-party copy: this depot reads the extent locally
// and stores it on the target depot directly, without routing bytes
// through the requesting client. ctx carries the caller's propagated
// deadline (if any); the client's Timeout bounds the onward store
// otherwise.
func (s *Server) copy(ctx context.Context, f []string, _ []byte) (string, []byte, error) {
	offset, length, err := ParseRange(f)
	targetOff, err3 := strconv.ParseInt(f[6], 10, 64)
	if err != nil || err3 != nil {
		return "", nil, fmt.Errorf("bad COPY numbers: %w", ErrProto)
	}
	data := bufpool.Get(int(length))
	defer bufpool.Put(data)
	if err := s.Depot.LoadInto(f[1], offset, data); err != nil {
		return "", nil, fmt.Errorf("local read: %w", err)
	}
	dialer := s.CopyDialer
	if dialer == nil {
		dialer = NetDialer{}
	}
	target := &Client{Addr: f[4], Dialer: dialer}
	if err := target.Store(ctx, f[5], targetOff, data); err != nil {
		return "", nil, fmt.Errorf("target store: %w", err)
	}
	return strconv.FormatInt(length, 10), nil, nil
}

func (s *Server) status(_ context.Context, _ []string, _ []byte) (string, []byte, error) {
	st := s.Depot.Stat()
	return fmt.Sprintf("%d %d %d", st.Capacity, st.Used, st.Allocations), nil, nil
}
