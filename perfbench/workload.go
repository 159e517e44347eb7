package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"lonviz/internal/agent"
	"lonviz/internal/edge"
	"lonviz/internal/geom"
	"lonviz/internal/lightfield"
	"lonviz/internal/obs"
	"lonviz/internal/session"
)

const (
	// sessionLen is the paper's orchestrated session: 58 view-set moves.
	sessionLen = session.PaperAccessCount
	// renderRes is the novel-view display resolution rendered after
	// every access.
	renderRes = 200
	// moveTimeout bounds one access. A failed access is charged this
	// latency, so it misses every latency limit.
	moveTimeout = 20 * time.Second
)

// workload is one closed-loop traffic shape: viewers concurrent viewers
// (0 means one per CPU) each walk seeded sessions back to back, pausing
// think between moves.
type workload struct {
	name    string
	why     string
	cs      caseKind
	viewers int
	think   time.Duration
	edge    bool // route every agent through one shared in-process edge
}

var workloads = []workload{
	{name: "lan_burst", cs: caseLAN, viewers: 1,
		why: "case 1, one viewer, no think time: the data plane and the renderer share the cores"},
	{name: "wan_paced", cs: caseWAN, viewers: 1, think: 80 * time.Millisecond,
		why: "case 2, one viewer behind the shared WAN: wire time, prefetch and DVS round trips dominate"},
	{name: "edge_fleet", cs: caseWAN, viewers: 0, think: 80 * time.Millisecond, edge: true,
		why: "waves of one viewer per CPU over the WAN through one shared edge cache"},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			if w.viewers == 0 {
				w.viewers = runtime.NumCPU()
			}
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// access is one move of one session as the benchmark saw it.
type access struct {
	at       time.Time // when the move started
	ms       float64   // move to decoded view set
	class    agent.AccessClass
	commMs   float64 // AccessRecord.Comm
	decodeMs float64 // AccessRecord.Decompress
	renderMs float64
	failed   bool
}

// miss reports whether the access was not served from the agent's cache.
func (a access) miss() bool { return a.failed || a.class != agent.AccessHit }

// sessionResult is one cold-agent session's outcome.
type sessionResult struct {
	accesses   []access
	records    []agent.AccessRecord // successful accesses, for session helpers
	stats      agent.ClientAgentStats
	useful     int64 // prefetched frames a user request consumed
	mismatches int
	verify     time.Duration // time spent checking outputs, not measured
	order      []lightfield.ViewSetID
	errs       []string
}

// phaseResult aggregates every session of one timed phase.
type phaseResult struct {
	sessions   []sessionResult
	wall       time.Duration // timed wall clock, output checks excluded
	wire       map[string]wireSnap
	edge       edge.CacheStats
	heapPeakMB float64
	dvsRTT     []float64
}

// accesses returns every access of the phase in start-time order.
func (p *phaseResult) accesses() []access {
	var out []access
	for _, s := range p.sessions {
		out = append(out, s.accesses...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at.Before(out[j].at) })
	return out
}

// runner drives sessions against one deployment.
type runner struct {
	d     *deployment
	w     workload
	seed  int64
	truth map[lightfield.ViewSetID][sha256.Size]byte
}

// scriptFor is the cursor walk of session idx: the benchmark's only
// input, derived from the run seed alone.
func scriptFor(p lightfield.Params, seed int64, idx int) (session.Script, error) {
	return session.StandardScript(p, sessionLen, deriveSeed(seed, "session", idx))
}

// phase runs sessions until dur has passed: one viewer back to back, or
// waves of w.viewers concurrent viewers. A session cut by the deadline
// keeps the moves it made. tr, when set, traces the phase.
func (r *runner) phase(ctx context.Context, dur time.Duration, tr *tracer) (*phaseResult, error) {
	res := &phaseResult{}
	var et *edgeTier
	if r.w.edge {
		var err error
		if et, err = r.d.startEdge(); err != nil {
			return nil, err
		}
		defer et.close()
	}
	edgeAddr := ""
	if et != nil {
		edgeAddr = et.addr
	}
	before := r.d.w.snapAll()
	rttBase := r.d.w.dvsClient.rttCount()
	r.d.trace.p.Store(tr)
	defer r.d.trace.p.Store(nil)
	root := tr.start("phase:"+r.w.name, 0)

	start := time.Now()
	deadline := start.Add(dur)
	var excluded time.Duration
	for idx := 0; time.Now().Before(deadline); {
		n := r.w.viewers
		wave := make([]sessionResult, n)
		agents := make([]*agent.ClientAgent, n)
		var wg sync.WaitGroup
		for v := 0; v < n; v++ {
			wg.Add(1)
			go func(v int) {
				defer wg.Done()
				wave[v], agents[v] = r.session(ctx, idx+v, edgeAddr, deadline, tr, root.ID())
			}(v)
		}
		wg.Wait()
		idx += n
		// The live heap is read after forced GCs while the wave's agents
		// still hold their caches: the same point of every session, so
		// the peak does not depend on when the collector happened to run.
		// The second GC drops what sync.Pool victim caches kept alive.
		t := time.Now()
		runtime.GC()
		runtime.GC()
		res.heapPeakMB = max(res.heapPeakMB, float64(readLiveHeap())/(1<<20))
		excluded += time.Since(t)
		var maxVerify time.Duration
		for v, s := range wave {
			if agents[v] != nil {
				agents[v].Close()
			}
			if s.verify > maxVerify {
				maxVerify = s.verify
			}
			if len(s.accesses) > 0 || len(s.errs) > 0 {
				res.sessions = append(res.sessions, s)
			}
		}
		excluded += maxVerify
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	res.wall = time.Since(start) - excluded
	root.end()
	res.wire = r.d.w.snapAll().sub(before)
	res.dvsRTT = r.d.w.dvsClient.rttSince(rttBase)
	if et != nil {
		res.edge = et.cache.Stats()
	}
	return res, nil
}

// session runs one cold-agent session of the seeded walk idx and returns
// the agent, still open, for the caller to close.
func (r *runner) session(ctx context.Context, idx int, edgeAddr string, deadline time.Time, tr *tracer, parent uint64) (sessionResult, *agent.ClientAgent) {
	var out sessionResult
	p := r.d.params
	script, err := scriptFor(p, r.seed, idx)
	if err != nil {
		out.errs = append(out.errs, err.Error())
		return out, nil
	}
	ca, reg, err := r.d.newAgent(edgeAddr)
	if err != nil {
		out.errs = append(out.errs, err.Error())
		return out, nil
	}
	sp := tr.start("session", parent)
	defer sp.end()
	var src agent.ViewSetSource = ca
	traced := &tracedSource{ca: ca, tr: tr}
	if tr != nil {
		src = traced
	}
	v, err := agent.NewViewer(p, src)
	if err != nil {
		out.errs = append(out.errs, err.Error())
		return out, ca
	}
	v.MaxDecoded = 1 // the paper's PDA client: every move is one request

	dist := p.OuterRadius * 1.6
	for i, move := range script.Moves {
		if i > 0 && r.w.think > 0 {
			time.Sleep(r.w.think)
		}
		if !time.Now().Before(deadline) || ctx.Err() != nil {
			break
		}
		a := r.move(ctx, v, move, dist, tr, sp.ID(), traced, &out)
		out.accesses = append(out.accesses, a)
	}
	out.stats = ca.Stats()
	out.useful = reg.Counter(obs.MAgentPrefetchUseful).Value()
	return out, ca
}

// move performs one access, renders one novel view from its result and
// checks the decoded view set against the generator's ground truth.
func (r *runner) move(ctx context.Context, v *agent.Viewer, move geom.Spherical, dist float64, tr *tracer, parent uint64, traced *tracedSource, out *sessionResult) access {
	sp := tr.start("access", parent)
	traced.parent = sp.ID()
	mctx, cancel := context.WithTimeout(ctx, moveTimeout)
	t0 := time.Now()
	rec, err := v.MoveTo(mctx, move)
	el := time.Since(t0)
	cancel()
	if err != nil {
		sp.setNote("error")
		sp.end()
		out.errs = append(out.errs, err.Error())
		return access{at: t0, ms: float64(moveTimeout) / 1e6, failed: true}
	}
	sp.setNote(rec.Class.String())
	sp.end()
	a := access{
		at:       t0,
		ms:       float64(el) / 1e6,
		class:    rec.Class,
		commMs:   float64(rec.Comm) / 1e6,
		decodeMs: float64(rec.Decompress) / 1e6,
	}
	out.records = append(out.records, rec)

	rs := tr.start("render", sp.ID())
	t1 := time.Now()
	_, _, rerr := v.Render(move, dist, renderRes)
	a.renderMs = float64(time.Since(t1)) / 1e6
	rs.end()

	t2 := time.Now()
	vs, ok := v.ViewSet(rec.ID)
	truth, known := r.truth[rec.ID]
	if rerr != nil || !ok || !known || digest(vs) != truth {
		out.mismatches++
		a.failed = true
		out.errs = append(out.errs, fmt.Sprintf("view set %v: decoded output differs from ground truth (render err %v)", rec.ID, rerr))
	}
	out.order = append(out.order, rec.ID)
	out.verify += time.Since(t2)
	return a
}

// tracedSource wraps the client agent for the viewer in traced phases:
// one span per request, from the call until the last frame byte has been
// read (streamed requests end at EOF). It keeps the agent's streaming
// path, which the viewer selects by type assertion.
type tracedSource struct {
	ca     *agent.ClientAgent
	tr     *tracer
	parent uint64 // current access span; one viewer per source
}

func (s *tracedSource) OnUserMove(sp geom.Spherical) { s.ca.OnUserMove(sp) }

func (s *tracedSource) GetViewSet(ctx context.Context, id lightfield.ViewSetID) ([]byte, agent.AccessReport, error) {
	sp := s.tr.start("agent.get", s.parent)
	frame, rep, err := s.ca.GetViewSet(ctx, id)
	sp.setNote(rep.Class.String())
	sp.end()
	return frame, rep, err
}

func (s *tracedSource) GetViewSetStream(ctx context.Context, id lightfield.ViewSetID) (*agent.ViewSetStream, error) {
	sp := s.tr.start("agent.stream", s.parent)
	st, err := s.ca.GetViewSetStream(ctx, id)
	if err != nil {
		sp.setNote("error")
		sp.end()
		return nil, err
	}
	st.Reader = &eofSpan{r: st.Reader, sp: sp}
	return st, nil
}

// eofSpan ends its span when the wrapped reader is exhausted.
type eofSpan struct {
	r    io.Reader
	sp   *spanHandle
	once sync.Once
}

func (e *eofSpan) Read(b []byte) (int, error) {
	n, err := e.r.Read(b)
	if err != nil {
		e.once.Do(e.sp.end)
	}
	return n, err
}

// snapAll snapshots every counter of the deployment by name.
func (w *wires) snapAll() wireSnaps {
	return wireSnaps{
		"ibp_client": w.ibpClient.snap(),
		"dvs_client": w.dvsClient.snap(),
		"wan_client": w.wanClient.snap(),
		"origin":     w.origin.snap(),
		"fill":       w.fill.snap(),
		"fill_wan":   w.fillWAN.snap(),
		"depot":      w.depot.snap(),
		"edge_srv":   w.edgeSrv.snap(),
	}
}

type wireSnaps map[string]wireSnap

func (s wireSnaps) sub(o wireSnaps) map[string]wireSnap {
	out := make(map[string]wireSnap, len(s))
	for k, v := range s {
		out[k] = v.sub(o[k])
	}
	return out
}
