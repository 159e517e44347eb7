package main

import (
	"lonviz/internal/agent"
	"lonviz/internal/bufpool"
	"lonviz/internal/obs/prof"
	"lonviz/internal/session"
)

// endToEnd reports what a browsing user sees, from an untraced phase.
func (r *result) endToEnd(d *deployment, p *phaseResult, setupSec []float64) {
	acc := p.accesses()
	completed, missN := 0, 0
	for _, a := range acc {
		if a.miss() {
			missN++
		}
		if !a.failed {
			completed++
		}
	}
	n := len(acc)
	latency := func(q float64, missOnly bool) func([]access) float64 {
		return func(w []access) float64 {
			var xs []float64
			for _, a := range w {
				if !missOnly || a.miss() {
					xs = append(xs, a.ms)
				}
			}
			return nearestRank(xs, q)
		}
	}
	r.add("access_p50_ms", windowedMedian(acc, latency(0.50, false)), "ms", n)
	r.add("access_p95_ms", windowedMedian(acc, latency(0.95, false)), "ms", n)
	r.add("miss_p50_ms", windowedMedian(acc, latency(0.50, true)), "ms", missN)
	r.add("throughput_aps", ratio(float64(completed), p.wall.Seconds()), "1/s", completed)
	r.add("origin_bytes_per_access", ratio(float64(p.wire["origin"].bytes()), float64(completed)), "B", completed)
	r.add("success_ratio", ratio(float64(completed), float64(n)), "ratio", n)
	r.add("setup_s", median(setupSec), "s", len(setupSec))
	r.add("heap_peak_mb", p.heapPeakMB, "MB", len(p.sessions))
	if !supported(n, 0.95) {
		r.Notes = append(r.Notes, "access_p95_ms has fewer than 10 samples beyond it")
	}
	if !supported(missN, 0.50) {
		r.Notes = append(r.Notes, "miss_p50_ms has fewer than 10 samples beyond it")
	}
}

// setupInfo carries the set-up figures into the per-layer report.
type setupInfo struct {
	deploySec, publishSec []float64
	depotIn               int64 // depot bytes received while publishing
}

// runtimeWindow brackets a phase with the Go runtime and bufpool
// counters.
type runtimeWindow struct {
	summary *prof.SummaryCollector
	pool    bufpool.Stats
}

type runtimeDelta struct {
	prof.Summary
	pool bufpool.Stats
}

func startRuntimeWindow() *runtimeWindow {
	return &runtimeWindow{summary: prof.StartSummary(20e6), pool: bufpool.ReadStats()}
}

func (w *runtimeWindow) stop() runtimeDelta {
	s := w.summary.Stop()
	now := bufpool.ReadStats()
	return runtimeDelta{Summary: s, pool: bufpool.Stats{
		Gets:        now.Gets - w.pool.Gets,
		Hits:        now.Hits - w.pool.Hits,
		BytesCopied: now.BytesCopied - w.pool.BytesCopied,
	}}
}

// perLayer reports the per-layer metrics of a traced run: counters and
// spans from the traced phase t, the layer walk, and the untraced phase u
// for the tracing overhead.
func (r *result) perLayer(d *deployment, u, t *phaseResult, wk walkResult, rt runtimeDelta, su setupInfo) {
	acc := t.accesses()
	var completed, hits, wanN, edgeN, failed int
	var comm, decode, renders []float64
	for _, a := range acc {
		if a.failed {
			failed++
			continue
		}
		completed++
		decode = append(decode, a.decodeMs)
		renders = append(renders, a.renderMs)
		switch a.class {
		case agent.AccessHit:
			hits++
		case agent.AccessWAN:
			wanN++
		case agent.AccessEdge:
			edgeN++
		}
		if a.miss() {
			comm = append(comm, a.commMs)
		}
	}
	missN := completed - hits
	c := float64(completed)
	var st agent.ClientAgentStats
	var useful int64
	var phases []float64
	for _, s := range t.sessions {
		st = addStats(st, s.stats)
		useful += s.useful
		phases = append(phases, float64(session.InitialPhaseLength(s.records)))
	}
	mean := float64(d.storedBytes) / float64(len(d.frames))
	fetches := st.WANFetches + st.EdgeFetches // downloads, user and prefetch
	fetched := float64(fetches) * mean

	// agent
	r.add("agent.hit_ratio", ratio(float64(hits), c), "ratio", completed)
	r.add("agent.prefetches_per_access", ratio(float64(st.Prefetches), c), "ratio", completed)
	r.add("agent.prefetch_yield", ratio(float64(useful), float64(st.Prefetches)), "ratio", int(st.Prefetches))
	r.add("agent.comm_p50_ms", nearestRank(comm, 0.50), "ms", len(comm))
	r.add("agent.comm_p95_ms", nearestRank(comm, 0.95), "ms", len(comm))
	r.add("agent.replica_tries_per_access", ratio(float64(st.ReplicaTries), c), "ratio", completed)
	r.add("agent.failed_attempts", float64(st.FailedAttempts), "count", 1)
	r.add("agent.checksum_errors", float64(st.ChecksumErrors), "count", 1)
	r.add("agent.initial_phase", median(phases), "accesses", len(phases))
	r.add("agent.coalesced", float64(st.Coalesced), "count", 1)
	r.add("agent.busy_rejections", float64(st.BusyRejections), "count", 1)
	r.add("agent.budget_exhausted", float64(st.BudgetExhausted), "count", 1)
	r.add("class.hit", float64(hits), "count", completed)
	r.add("class.wan", float64(wanN), "count", completed)
	r.add("class.edge", float64(edgeN), "count", completed)
	r.add("access.failed_ratio", ratio(float64(failed), float64(len(acc))), "ratio", len(acc))
	r.add("access.sessions", float64(len(t.sessions)), "count", 1)

	// dvs
	dv := t.wire["dvs_client"]
	r.add("dvs.requests_per_access", ratio(float64(dv.Conns), c), "ratio", completed)
	r.add("dvs.rtt_p50_ms", median(t.dvsRTT), "ms", len(t.dvsRTT))

	// ibp client wire
	ib := t.wire["ibp_client"]
	r.add("ibp.dials_per_access", ratio(float64(ib.Conns), c), "ratio", completed)
	r.add("ibp.read_bytes_per_access", ratio(float64(ib.Read), c), "B", completed)
	r.add("ibp.wire_overhead_ratio", ratio(float64(ib.Read), fetched), "ratio", int(fetches))
	r.add("ibp.read_wait_ms_per_miss", ratio(float64(ib.WaitNs)/1e6, float64(missN)), "ms", missN)

	// ibp depot side
	dp := t.wire["depot"]
	r.add("depot.accepts", float64(dp.Conns), "count", 1)
	r.add("depot.bytes_out_per_access", ratio(float64(dp.Written), c), "B", completed)
	r.add("depot.bytes_in_setup", float64(su.depotIn), "B", 1)
	r.add("depot.bytes_in_session", float64(dp.Read), "B", 1)

	// layer walk
	r.add("walk.dvs_get_ms", median(wk.dvsGet), "ms", len(wk.dvsGet))
	r.add("walk.exnode_ms", median(wk.exnode), "ms", len(wk.exnode))
	r.add("walk.lors_download_ms", median(wk.download), "ms", len(wk.download))
	r.add("walk.decode_mb_s", ratio(float64(wk.decodedBytes)/(1<<20), wk.decodeSec), "MB/s", len(wk.decode))
	r.add("walk.render_ms", median(wk.render), "ms", len(wk.render))
	r.add("walk.errors", float64(wk.errors), "count", 1)

	// lightfield in session
	r.add("lightfield.decode_p50_ms", nearestRank(decode, 0.50), "ms", len(decode))
	r.add("lightfield.render_p50_ms", nearestRank(renders, 0.50), "ms", len(renders))
	r.add("lightfield.render_fps", ratio(float64(len(renders)), sum(renders)/1e3), "1/s", len(renders))

	// edge
	e := t.edge
	r.add("edge.hit_ratio", ratio(float64(e.Hits), float64(e.Hits+e.Misses)), "ratio", int(e.Hits+e.Misses))
	r.add("edge.fills", float64(e.Fills), "count", 1)
	r.add("edge.refills", float64(e.Refills), "count", 1)
	r.add("edge.coalesced", float64(e.Coalesced), "count", 1)
	r.add("edge.fill_errors", float64(e.FillErrors), "count", 1)

	// netsim WAN pipe
	wc, fw := t.wire["wan_client"], t.wire["fill_wan"]
	r.add("wan.client_bytes", float64(wc.bytes()), "B", 1)
	r.add("wan.fill_bytes", float64(fw.bytes()), "B", 1)
	wanBytes := float64(wc.bytes() + fw.bytes())
	r.add("wan.utilization", ratio(wanBytes, float64(d.cfg.WAN.Bandwidth)*t.wall.Seconds()), "ratio", 1)

	// bufpool and Go runtime
	r.add("bufpool.hit_ratio", ratio(float64(rt.pool.Hits), float64(rt.pool.Gets)), "ratio", int(rt.pool.Gets))
	r.add("bufpool.bytes_copied_per_access", ratio(float64(rt.pool.BytesCopied), c), "B", completed)
	r.add("runtime.alloc_mb_per_access", ratio(rt.AllocRateMBs*rt.DurationSec, c), "MB", completed)
	r.add("runtime.gc_cycles_per_1k_access", ratio(1000*float64(rt.GCCycles), c), "ratio", completed)
	r.add("runtime.gc_pause_p99_ms", rt.GCPauseP99Ms, "ms", int(rt.GCCycles))
	r.add("runtime.peak_goroutines", float64(rt.PeakGoroutines), "count", 1)

	// set-up
	r.add("setup.deploy_s", median(su.deploySec), "s", len(su.deploySec))
	r.add("setup.publish_s", median(su.publishSec), "s", len(su.publishSec))
	r.add("setup.stored_mb", float64(d.storedBytes)/(1<<20), "MB", len(d.frames))

	// tracing overhead: traced over untraced throughput
	uc := 0
	for _, a := range u.accesses() {
		if !a.failed {
			uc++
		}
	}
	r.add("trace.overhead_ratio", ratio(ratio(c, t.wall.Seconds()), ratio(float64(uc), u.wall.Seconds())), "ratio", completed)
}

func addStats(a, b agent.ClientAgentStats) agent.ClientAgentStats {
	a.Hits += b.Hits
	a.WANFetches += b.WANFetches
	a.EdgeFetches += b.EdgeFetches
	a.Prefetches += b.Prefetches
	a.ReplicaTries += b.ReplicaTries
	a.FailedAttempts += b.FailedAttempts
	a.ChecksumErrors += b.ChecksumErrors
	a.Coalesced += b.Coalesced
	a.BusyRejections += b.BusyRejections
	a.BudgetExhausted += b.BudgetExhausted
	return a
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
