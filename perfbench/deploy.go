package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"lonviz/internal/agent"
	"lonviz/internal/dvs"
	"lonviz/internal/edge"
	"lonviz/internal/exnode"
	"lonviz/internal/experiments"
	"lonviz/internal/ibp"
	"lonviz/internal/lbone"
	"lonviz/internal/lightfield"
	"lonviz/internal/netsim"
	"lonviz/internal/obs"
)

// caseKind is the paper's section 4.2 streaming configuration.
type caseKind int

const (
	caseLAN caseKind = 1 // database on LAN depots
	caseWAN caseKind = 2 // database and DVS behind the shared WAN
)

// dataset is the name the server agent publishes under.
const dataset = "neghip"

// wires holds every byte counter of one deployment. Client-side counters
// sit on the wrapped dialers, server-side ones on the wrapped listeners.
type wires struct {
	ibpClient wireCounter // agent -> depots and edge, IBP
	dvsClient wireCounter // agent -> DVS
	wanClient wireCounter // agent connections on WAN-profile routes
	origin    wireCounter // any connection to the origin site (server depots, DVS), any dialer
	fill      wireCounter // edge fills toward the origin depots
	fillWAN   wireCounter // edge fills on WAN-profile routes
	depot     wireCounter // server side of every depot
	edgeSrv   wireCounter // server side of the edge
}

// traceRef lets long-lived dialers and listeners pick up the tracer of
// whichever phase is running; it holds nil outside traced phases.
type traceRef struct{ p atomic.Pointer[tracer] }

func (r *traceRef) get() *tracer { return r.p.Load() }

// deployment is one fully wired system instance, built from the packages'
// public constructors so every layer boundary can be wrapped.
type deployment struct {
	cfg    experiments.Config
	params lightfield.Params
	w      *wires
	trace  *traceRef

	clientNet *netsim.Dialer // client-site shaping: routes to every server
	origins   []string       // server depots
	dvsAddr   string
	originSet map[string]bool

	sa *agent.ServerAgent

	deploySec, publishSec float64
	frames                map[lightfield.ViewSetID]int // compressed frame bytes per view set
	storedBytes           int64                        // compressed database bytes published

	closers []func()
	serving sync.WaitGroup // Serve loops started on wrapped listeners
}

// close tears every server down in reverse start order and waits for the
// serve loops the deployment started.
func (d *deployment) close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	d.serving.Wait()
}

func (d *deployment) addCloser(f func()) { d.closers = append(d.closers, f) }

// agentDialer is the client agent's IBP dialer.
func (d *deployment) agentDialer() *countingDialer {
	return &countingDialer{net: d.clientNet, tr: d.trace, classify: func(addr string) route {
		r := route{counters: []*wireCounter{&d.w.ibpClient}, span: "ibp.conn"}
		return d.withRoute(r, addr, &d.w.wanClient)
	}}
}

// dvsDialer is the client agent's DVS dialer.
func (d *deployment) dvsDialer() *countingDialer {
	return &countingDialer{net: d.clientNet, tr: d.trace, classify: func(addr string) route {
		r := route{counters: []*wireCounter{&d.w.dvsClient}, span: "dvs.conn"}
		return d.withRoute(r, addr, &d.w.wanClient)
	}}
}

// fillDialer is the edge cache's origin dialer: the edge sits at the
// client site, so fills take the client site's routes.
func (d *deployment) fillDialer() *countingDialer {
	return &countingDialer{net: d.clientNet, tr: d.trace, classify: func(addr string) route {
		r := route{counters: []*wireCounter{&d.w.fill}, span: "edge.fill_conn"}
		return d.withRoute(r, addr, &d.w.fillWAN)
	}}
}

// withRoute adds the WAN and origin counters a destination earns.
func (d *deployment) withRoute(r route, addr string, wan *wireCounter) route {
	if d.clientNet.RouteTo(addr).Name == d.cfg.WAN.Name {
		r.counters = append(r.counters, wan)
	}
	if d.originSet[addr] {
		r.counters = append(r.counters, &d.w.origin)
	}
	return r
}

// serveWrapped listens on loopback and runs serve on a counting
// listener, returning the bound address.
func (d *deployment) serveWrapped(counter *wireCounter, span string, serve func(net.Listener) error) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	cl := &countingListener{Listener: l, counter: counter, span: span, trace: d.trace}
	d.serving.Add(1)
	go func() {
		defer d.serving.Done()
		_ = serve(cl) // returns once the server is closed
	}()
	return l.Addr().String(), nil
}

func (d *deployment) startDepot(capacity int64) (string, error) {
	dep, err := ibp.NewDepot(ibp.DepotConfig{Capacity: capacity, MaxLease: time.Hour})
	if err != nil {
		return "", err
	}
	srv := ibp.NewServer(dep)
	addr, err := d.serveWrapped(&d.w.depot, "depot.conn", srv.Serve)
	if err != nil {
		return "", err
	}
	d.addCloser(func() { _ = srv.Close() })
	return addr, nil
}

// deploy builds and publishes one deployment of case cs, timing the two
// halves of set-up: starting the servers (deploy) and generating,
// compressing, uploading and registering the database (publish).
func deploy(ctx context.Context, cs caseKind, datasetSeed int64) (*deployment, error) {
	cfg := experiments.DefaultConfig()
	cfg.Seed = datasetSeed
	p := cfg.ParamsAt(experiments.ScaleRes(200))
	if err := p.Validate(); err != nil {
		return nil, err
	}
	d := &deployment{cfg: cfg, params: p, w: &wires{}, trace: &traceRef{}, originSet: map[string]bool{}}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()
	start := time.Now()

	d.clientNet = netsim.NewDialer(cfg.LAN)
	dbBytes := p.UncompressedDBBytes()
	capacity := dbBytes + dbBytes/2 + (8 << 20)
	originProfile := cfg.WAN
	if cs == caseLAN {
		originProfile = cfg.LAN
	}
	for i := 0; i < cfg.NumWANDepots; i++ {
		addr, err := d.startDepot(capacity)
		if err != nil {
			return nil, err
		}
		d.origins = append(d.origins, addr)
		d.originSet[addr] = true
		d.clientNet.SetRoute(addr, originProfile)
	}

	// L-Bone: the depot directory every deployment registers its depots
	// with, origin depots far from the client, as experiments.Deploy does.
	lb := lbone.NewServer()
	lbAddr, err := lb.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.addCloser(func() { _ = lb.Close() })
	lbHTTP := &http.Transport{} // own pool, so teardown can close its idle connections
	d.addCloser(lbHTTP.CloseIdleConnections)
	lbClient := &lbone.Client{BaseURL: "http://" + lbAddr, HTTP: &http.Client{Transport: lbHTTP}}
	for i, addr := range d.origins {
		if err := lbClient.Register(ctx, lbone.DepotRecord{Addr: addr, X: 100 + float64(i), Y: 100, Capacity: capacity, Free: capacity}); err != nil {
			return nil, err
		}
	}

	dvsSrv := dvs.NewServer("")
	if d.dvsAddr, err = dvsSrv.ListenAndServe("127.0.0.1:0"); err != nil {
		return nil, err
	}
	d.addCloser(func() { _ = dvsSrv.Close() })
	d.originSet[d.dvsAddr] = true
	d.clientNet.SetRoute(d.dvsAddr, originProfile)

	gen, err := lightfield.NewProceduralGenerator(p, cfg.Seed)
	if err != nil {
		return nil, err
	}
	d.sa, err = agent.NewServerAgent(agent.ServerAgentConfig{
		Dataset:    dataset,
		Gen:        gen,
		Depots:     d.origins,
		DVS:        &dvs.Client{Addr: d.dvsAddr, Obs: obs.NewRegistry()},
		StripeSize: cfg.StripeSize,
		Replicas:   cfg.Replicas,
		Workers:    8,
		Obs:        obs.NewRegistry(),
	})
	if err != nil {
		return nil, err
	}
	d.addCloser(func() { _ = d.sa.Close() })
	saAddr, err := d.sa.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	dvsSrv.Generate = agent.GenerateFunc(nil)
	if err := dvsSrv.RegisterAgent(dataset, saAddr); err != nil {
		return nil, err
	}
	d.deploySec = time.Since(start).Seconds()

	pubStart := time.Now()
	docs, err := d.sa.PrecomputeAll(ctx)
	if err != nil {
		return nil, fmt.Errorf("publish: %w", err)
	}
	d.publishSec = time.Since(pubStart).Seconds()
	d.frames = make(map[lightfield.ViewSetID]int, len(docs))
	for id, doc := range docs {
		ex, err := exnode.Unmarshal(doc)
		if err != nil {
			return nil, fmt.Errorf("publish: exNode of %v: %w", id, err)
		}
		d.frames[id] = int(ex.Length)
		d.storedBytes += ex.Length
	}
	ok = true
	return d, nil
}

// setupSec is the deployment's whole set-up time.
func (d *deployment) setupSec() float64 { return d.deploySec + d.publishSec }

// newAgent builds one cold client agent with its own metrics registry,
// so its counters belong to this benchmark run alone.
func (d *deployment) newAgent(edgeAddr string) (*agent.ClientAgent, *obs.Registry, error) {
	reg := obs.NewRegistry()
	ca, err := agent.NewClientAgent(agent.ClientAgentConfig{
		Dataset:    dataset,
		Params:     d.params,
		DVS:        &dvs.Client{Addr: d.dvsAddr, Dialer: d.dvsDialer(), Obs: reg},
		Dialer:     d.agentDialer(),
		CacheBytes: d.cfg.CacheBytes,
		Prefetch:   true,
		EdgeAddr:   edgeAddr,
		Obs:        reg,
		Tracer:     obs.NewTracer(64),
	})
	return ca, reg, err
}

// edgeTier is one in-process edge cache serving on a counting listener.
type edgeTier struct {
	addr  string
	cache *edge.Cache
	srv   *edge.Server
	done  sync.WaitGroup
}

// startEdge starts an edge at the client site: agents reach it over the
// LAN profile and its fills reach the origin over the client site's
// routes (the WAN in case 2).
func (d *deployment) startEdge() (*edgeTier, error) {
	cache, err := edge.NewCache(edge.CacheConfig{
		CapacityBytes: 64 << 20,
		Dialer:        d.fillDialer(),
		Obs:           obs.NewRegistry(),
	})
	if err != nil {
		return nil, err
	}
	e := &edgeTier{cache: cache, srv: edge.NewServer(cache)}
	e.srv.Obs = obs.NewRegistry()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cl := &countingListener{Listener: l, counter: &d.w.edgeSrv, span: "edge.conn", trace: d.trace}
	e.done.Add(1)
	go func() {
		defer e.done.Done()
		_ = e.srv.Serve(cl) // returns once the server is closed
	}()
	e.addr = l.Addr().String()
	d.clientNet.SetRoute(e.addr, d.cfg.LAN)
	return e, nil
}

func (e *edgeTier) close() {
	_ = e.srv.Close()
	e.done.Wait()
}
