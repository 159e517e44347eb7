package edge

import (
	"context"
	"fmt"
	"strconv"

	"lonviz/internal/ibp"
	"lonviz/internal/obs"
)

// transport is embedded under an unexported name, so Server gains the
// transport's settings and methods without an exported Transport field.
type transport = ibp.Transport

// Server exposes a Cache over the IBP LOAD/STATUS wire subset, on the same
// framed transport as depots (serial or PIPELINE-tagged). A client agent
// holding a rewritten exNode talks to it exactly as it would to a depot:
// `LOAD <composite-cap> <offset> <length>` answered with `OK <len>` plus
// payload, errors answered with the IBP error line so the unmodified lors
// failover path handles edge outages by falling back to the origin
// replicas. The embedded transport carries the serving settings
// (PipelineWindow, Admission, Logf, Obs, Tracer) and Serve,
// ListenAndServe and Close.
type Server struct {
	*transport
	Cache *Cache
}

// edgeServe names the edge's telemetry: edge.serve.ms, the edge.serve
// span and edge.shed. The depot-only error counter, admission gauges,
// serve_err event and prof label are not emitted.
var edgeServe = ibp.ServeDesc{
	Component: "edge",
	OpMs:      obs.MEdgeServeMs,
	Span:      obs.SpanEdgeServe,
	Shed:      obs.MEdgeShed,
	Zero:      []string{obs.MEdgeHits, obs.MEdgeMisses, obs.MEdgeFills},
}

// NewServer wraps a cache. The edge is read-only: ALLOCATE, STORE and the
// other depot verbs are unknown here.
func NewServer(c *Cache) *Server {
	s := &Server{Cache: c}
	s.transport = ibp.NewTransport(edgeServe, map[string]ibp.Verb{
		"LOAD":   {Args: 3, Serve: s.load},
		"STATUS": {Serve: s.status},
	})
	return s
}

// load serves one extent through the cache. The body is the cached entry
// itself (immutable once published), written straight to the socket and
// never recycled, so the registration leaves PooledBody unset.
func (s *Server) load(ctx context.Context, f []string, _ []byte) (string, []byte, error) {
	offset, length, err := ibp.ParseRange(f)
	if err != nil {
		return "", nil, err
	}
	cp, ok := ParseCap(f[1])
	if !ok {
		return "", nil, fmt.Errorf("not an edge composite capability: %w", ibp.ErrNoCap)
	}
	data, _, err := s.Cache.Load(ctx, cp, offset, length)
	if err != nil {
		// %v, not %w: an origin's typed error is not the edge's own (an
		// origin BUSY must not read as "this edge is busy"), so a failed
		// fill answers INTERNAL.
		return "", nil, fmt.Errorf("fill: %v", err)
	}
	return strconv.Itoa(len(data)), data, nil
}

func (s *Server) status(_ context.Context, _ []string, _ []byte) (string, []byte, error) {
	st := s.Cache.Stats()
	return fmt.Sprintf("%d %d %d", st.Capacity, st.Used, st.Entries), nil, nil
}
