package main

import (
	"math"
	"testing"
	"time"

	"lonviz/internal/agent"
	"lonviz/internal/edge"
	"lonviz/internal/experiments"
	"lonviz/internal/lightfield"
)

func TestNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200..1, unsorted on purpose
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0.50, 100}, {0.95, 190}, {0.99, 198}, {1.0, 200}, {0.001, 1},
	} {
		if got := nearestRank(xs, tc.q); got != tc.want {
			t.Errorf("nearestRank(1..200, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 200 {
		t.Error("nearestRank reordered its input")
	}
	if got := nearestRank(nil, 0.5); got != 0 {
		t.Errorf("nearestRank(empty) = %v, want 0", got)
	}
	if got := nearestRank([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("nearestRank({3,1,2}, 0.5) = %v, want 2", got)
	}
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		tail int
		ok   bool
	}{
		{200, 0.95, 10, true},
		{199, 0.95, 9, false},
		{400, 0.95, 20, true},
		{20, 0.50, 10, true},
		{19, 0.50, 9, false},
		{1000, 0.99, 10, true},
		{999, 0.99, 9, false},
		{0, 0.95, 0, false},
	} {
		if got := tailCount(tc.n, tc.q); got != tc.tail {
			t.Errorf("tailCount(%d, %v) = %d, want %d", tc.n, tc.q, got, tc.tail)
		}
		if got := supported(tc.n, tc.q); got != tc.ok {
			t.Errorf("supported(%d, %v) = %v, want %v", tc.n, tc.q, got, tc.ok)
		}
	}
}

func TestRatioZeroBase(t *testing.T) {
	if got := ratio(5, 0); got != 0 {
		t.Errorf("ratio(5, 0) = %v, want 0", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v, want 0.75", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
}

// TestRatioBases pins the base of every ratio the benchmark reports on a
// hand-built phase whose counts are all different, so a ratio divided by
// the wrong count shows.
func TestRatioBases(t *testing.T) {
	cfg := experiments.DefaultConfig()
	d := &deployment{cfg: cfg, storedBytes: 1000, frames: map[lightfield.ViewSetID]int{{R: 0, C: 0}: 400, {R: 0, C: 1}: 600}}
	// 10 attempted: 6 hits, 2 WAN, 1 edge, 1 failed.
	var acc []access
	for i := 0; i < 6; i++ {
		acc = append(acc, access{ms: 1, class: agent.AccessHit, renderMs: 10})
	}
	acc = append(acc,
		access{ms: 80, class: agent.AccessWAN, commMs: 70, renderMs: 10},
		access{ms: 90, class: agent.AccessWAN, commMs: 75, renderMs: 10},
		access{ms: 5, class: agent.AccessEdge, commMs: 4, renderMs: 10},
		access{ms: float64(moveTimeout) / 1e6, failed: true},
	)
	st := agent.ClientAgentStats{Prefetches: 4, WANFetches: 4, EdgeFetches: 1, ReplicaTries: 18}
	ph := &phaseResult{
		sessions: []sessionResult{{accesses: acc, stats: st, useful: 3}},
		wall:     2 * time.Second,
		wire: map[string]wireSnap{
			"origin":     {Read: 9000, Written: 1000},
			"ibp_client": {Conns: 3, Read: 6000, WaitNs: 30e6},
			"dvs_client": {Conns: 18},
			"depot":      {Conns: 4, Written: 4500, Read: 700},
			"wan_client": {Read: 300, Written: 100},
			"fill_wan":   {Read: 500},
		},
		edge: edge.CacheStats{Hits: 3, Misses: 1},
	}
	r := &result{Metrics: map[string]metric{}}
	r.endToEnd(d, ph, []float64{1, 3, 2})
	r.perLayer(d, &phaseResult{sessions: ph.sessions, wall: time.Second}, ph, walkResult{decodedBytes: 1 << 20, decodeSec: 0.5}, runtimeDelta{}, setupInfo{})

	want := map[string]float64{
		// end to end
		"throughput_aps":          9.0 / 2,     // completed / wall seconds
		"success_ratio":           9.0 / 10,    // completed / attempted
		"origin_bytes_per_access": 10000.0 / 9, // both directions / completed
		"setup_s":                 2,           // median of set-ups
		// per layer
		"agent.hit_ratio":                6.0 / 9,              // hits / completed
		"agent.prefetches_per_access":    4.0 / 9,              // prefetches / completed
		"agent.prefetch_yield":           3.0 / 4,              // useful / prefetches
		"agent.replica_tries_per_access": 18.0 / 9,             // tries / completed
		"class.edge":                     1,                    // a count, no base
		"lightfield.render_fps":          9 / (90 / 1e3),       // renders / render seconds
		"access.failed_ratio":            1.0 / 10,             // failed / attempted
		"dvs.requests_per_access":        18.0 / 9,             // DVS connections / completed
		"ibp.dials_per_access":           3.0 / 9,              // dials / completed
		"ibp.read_bytes_per_access":      6000.0 / 9,           // bytes read / completed
		"ibp.wire_overhead_ratio":        6000.0 / (5 * 500.0), // wire bytes / (fetches x mean frame)
		"ibp.read_wait_ms_per_miss":      30.0 / 3,             // wait ms / completed misses
		"depot.bytes_out_per_access":     4500.0 / 9,           // depot bytes written / completed
		"edge.hit_ratio":                 3.0 / 4,              // hits / (hits + misses)
		"wan.utilization":                900 / (float64(cfg.WAN.Bandwidth) * 2),
		"walk.decode_mb_s":               2,       // decoded MB / decode seconds
		"trace.overhead_ratio":           4.5 / 9, // traced aps / untraced aps
	}
	for name, v := range want {
		m, ok := r.Metrics[name]
		if !ok {
			t.Errorf("%s not reported", name)
			continue
		}
		if math.Abs(m.Value-v) > 1e-9*math.Max(1, math.Abs(v)) {
			t.Errorf("%s = %v, want %v", name, m.Value, v)
		}
	}
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v", name, m.Value)
		}
	}
}

func TestSeedGivesSameWalk(t *testing.T) {
	p := experiments.DefaultConfig().ParamsAt(experiments.ScaleRes(200))
	walk := func(seed int64, idx int) []lightfield.ViewSetID {
		s, err := scriptFor(p, seed, idx)
		if err != nil {
			t.Fatal(err)
		}
		return s.Transitions(p)
	}
	a, b := walk(42, 3), walk(42, 3)
	if len(a) != sessionLen {
		t.Fatalf("walk has %d view sets, want %d", len(a), sessionLen)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 42 walk differs at move %d: %v vs %v", i, a[i], b[i])
		}
	}
	differs := func(x, y []lightfield.ViewSetID) bool {
		for i := range x {
			if x[i] != y[i] {
				return true
			}
		}
		return false
	}
	if !differs(a, walk(43, 3)) {
		t.Error("seeds 42 and 43 give the same walk")
	}
	if !differs(a, walk(42, 4)) {
		t.Error("sessions 3 and 4 of one seed give the same walk")
	}
	if deriveSeed(42, "dataset", 0) != deriveSeed(42, "dataset", 0) {
		t.Error("deriveSeed is not deterministic")
	}
	if deriveSeed(42, "dataset", 0) == deriveSeed(42, "session", 0) {
		t.Error("dataset and session streams share a seed")
	}
}

func TestWindowedMedian(t *testing.T) {
	p95 := func(w []access) float64 {
		var xs []float64
		for _, a := range w {
			xs = append(xs, a.ms)
		}
		return nearestRank(xs, 0.95)
	}
	// 1000 accesses at 1..100 ms in every window, with one window slowed
	// tenfold: five windows, and the slow one does not move the median.
	acc := make([]access, 1000)
	for i := range acc {
		acc[i].ms = float64(i%100 + 1)
		if i >= 400 && i < 600 {
			acc[i].ms *= 10
		}
	}
	if got := windowedMedian(acc, p95); got != 95 {
		t.Errorf("windowed p95 = %v, want 95", got)
	}
	// Fewer than windowSize samples form one window: the plain quantile.
	if got, want := windowedMedian(acc[:150], p95), p95(acc[:150]); got != want {
		t.Errorf("one-window p95 = %v, want %v", got, want)
	}
	if got := windowedMedian(nil, p95); got != 0 {
		t.Errorf("empty windowed p95 = %v, want 0", got)
	}
}
