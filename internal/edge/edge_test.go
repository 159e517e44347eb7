package edge

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"lonviz/internal/exnode"
	"lonviz/internal/ibp"
	"lonviz/internal/obs"
)

// startDepot runs an in-memory depot holding payload and returns its
// address plus the read capability and a teardown.
func startDepot(t *testing.T, payload []byte) (addr, readCap string, srv *ibp.Server) {
	t.Helper()
	depot, err := ibp.NewDepot(ibp.DepotConfig{Capacity: 1 << 20, MaxLease: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	srv = ibp.NewServer(depot)
	addr, err = srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	caps, err := depot.Allocate(int64(len(payload)), time.Hour, ibp.Stable)
	if err != nil {
		t.Fatal(err)
	}
	if err := depot.Store(caps.Write, 0, payload); err != nil {
		t.Fatal(err)
	}
	return addr, caps.Read, srv
}

func TestCapRoundTrip(t *testing.T) {
	orig := Cap{Hint: "r01c02", OriginDepot: "10.0.0.7:6714", OriginCap: "ibp!weird!cap/with=stuff"}
	got, ok := ParseCap(orig.Encode())
	if !ok || got != orig {
		t.Fatalf("roundtrip: got %+v ok=%v, want %+v", got, ok, orig)
	}
	if _, ok := ParseCap("plain-depot-cap"); ok {
		t.Fatal("plain cap parsed as composite")
	}
	if _, ok := ParseCap("edge!h!!cap"); ok {
		t.Fatal("empty origin depot accepted")
	}
}

func TestEdgeServeHitMissAndPopularity(t *testing.T) {
	payload := bytes.Repeat([]byte("viewset-bytes."), 64)
	depotAddr, readCap, _ := startDepot(t, payload)

	reg := obs.NewRegistry()
	cache, err := NewCache(CacheConfig{CapacityBytes: 1 << 20, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	esrv := NewServer(cache)
	esrv.Obs = reg
	edgeAddr, err := esrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer esrv.Close()

	comp := Cap{Hint: "r00c01", OriginDepot: depotAddr, OriginCap: readCap}.Encode()
	cl := &ibp.Client{Addr: edgeAddr}
	ctx := context.Background()

	got, err := cl.Load(ctx, comp, 0, int64(len(payload)))
	if err != nil {
		t.Fatalf("first load (miss+fill): %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("fill returned wrong bytes")
	}
	got, err = cl.Load(ctx, comp, 0, int64(len(payload)))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("second load (hit): %v", err)
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Fills != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 fill", st)
	}
	top := cache.Popularity().Top(4)
	if len(top) != 1 || top[0].Hint != "r00c01" || top[0].Count < 1.5 {
		t.Fatalf("popularity top = %+v, want r00c01 with ~2 accesses", top)
	}

	// Plain depot caps are refused: the edge serves only composite reads.
	if _, err := cl.Load(ctx, readCap, 0, 8); err == nil {
		t.Fatal("edge served a non-composite capability")
	}
	// STATUS reports capacity/used/entries like a depot.
	if capacity, used, entries, err := cl.Status(ctx); err != nil || capacity != 1<<20 || used == 0 || entries != 1 {
		t.Fatalf("STATUS = (%d, %d, %d, %v), want capacity/used/entries", capacity, used, entries, err)
	}
}

func TestEdgeFillFailureFallsThrough(t *testing.T) {
	payload := []byte("some bytes")
	depotAddr, readCap, depotSrv := startDepot(t, payload)
	cache, err := NewCache(CacheConfig{CapacityBytes: 1 << 20, FillTimeout: 2 * time.Second, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	esrv := NewServer(cache)
	edgeAddr, err := esrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer esrv.Close()

	depotSrv.Close() // origin down: fills must fail, not wedge
	comp := Cap{Hint: "r00c00", OriginDepot: depotAddr, OriginCap: readCap}.Encode()
	cl := &ibp.Client{Addr: edgeAddr}
	if _, err := cl.Load(context.Background(), comp, 0, int64(len(payload))); err == nil {
		t.Fatal("fill against a dead origin succeeded")
	}
	if st := cache.Stats(); st.FillErrors == 0 {
		t.Fatalf("stats = %+v, want fill errors recorded", st)
	}
}

func TestEdgeSingleFlightCoalescesFills(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 4096)
	depotAddr, readCap, _ := startDepot(t, payload)
	cache, err := NewCache(CacheConfig{CapacityBytes: 1 << 20, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	comp := Cap{Hint: "r01c01", OriginDepot: depotAddr, OriginCap: readCap}

	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, _, err := cache.Load(context.Background(), comp, 0, int64(len(payload)))
			if err == nil && !bytes.Equal(data, payload) {
				err = errors.New("wrong bytes")
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	// All callers were misses (nothing cached when they checked), but the
	// single-flight group must not have filled once per caller.
	if st := cache.Stats(); st.Fills >= callers {
		t.Fatalf("stats = %+v, want fills coalesced below %d callers", st, callers)
	}
}

// TestEdgeMissAfterLandedFillDoesNotRefill replays the window between a
// cache miss and its flight: another reader's fill lands in between, so
// the late reader's flight must find the extent cached instead of
// fetching it from the origin a second time.
func TestEdgeMissAfterLandedFillDoesNotRefill(t *testing.T) {
	payload := bytes.Repeat([]byte("z"), 4096)
	depotAddr, readCap, srv := startDepot(t, payload)
	cache, err := NewCache(CacheConfig{CapacityBytes: 1 << 20, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	comp := Cap{Hint: "r02c02", OriginDepot: depotAddr, OriginCap: readCap}
	if _, _, err := cache.Load(context.Background(), comp, 0, int64(len(payload))); err != nil {
		t.Fatal(err)
	}
	// With the origin gone, only the cache can answer the late miss.
	srv.Close()
	data, err := cache.loadMiss(context.Background(), comp, 0, int64(len(payload)))
	if err != nil {
		t.Fatalf("late miss: %v", err)
	}
	if !bytes.Equal(data, payload) {
		t.Fatal("late miss returned wrong bytes")
	}
	if st := cache.Stats(); st.Fills != 1 || st.Refills != 0 || st.FillErrors != 0 {
		t.Fatalf("stats = %+v, want one fill, no refill, no fill error", st)
	}
}

func TestEdgeCacheEviction(t *testing.T) {
	payload := bytes.Repeat([]byte("y"), 1024)
	depotAddr, readCap, _ := startDepot(t, payload)
	// One shard barely two entries wide forces evictions.
	cache, err := NewCache(CacheConfig{CapacityBytes: 2500, Shards: 1, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		comp := Cap{Hint: fmt.Sprintf("r00c%02d", i), OriginDepot: depotAddr, OriginCap: readCap}
		// Distinct ranges make distinct cache keys.
		if _, _, err := cache.Load(ctx, comp, int64(i), 1000); err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
	}
	st := cache.Stats()
	if st.Evictions == 0 {
		t.Fatalf("stats = %+v, want evictions under a 2.5KB budget", st)
	}
	if st.Used > 2500 {
		t.Fatalf("stats = %+v, want used within budget", st)
	}
}

func TestRewriteExNodeAndWarm(t *testing.T) {
	payload := bytes.Repeat([]byte("warm-me."), 128)
	depotAddr, readCap, _ := startDepot(t, payload)
	ex := &exnode.ExNode{
		Name:   "r02c03",
		Length: int64(len(payload)),
		Extents: []exnode.Extent{{
			Offset: 0, Length: int64(len(payload)),
			Checksum: exnode.ChecksumOf(payload),
			Replicas: []exnode.Replica{{Depot: depotAddr, ReadCap: readCap, ManageCap: "m"}},
		}},
	}
	cache, err := NewCache(CacheConfig{CapacityBytes: 1 << 20, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	esrv := NewServer(cache)
	edgeAddr, err := esrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer esrv.Close()

	rew := RewriteExNode(ex, edgeAddr, "r02c03")
	if err := rew.Validate(); err != nil {
		t.Fatalf("rewritten exNode invalid: %v", err)
	}
	rep := rew.Extents[0].Replicas[0]
	if rep.Depot != edgeAddr || rep.ManageCap != "" {
		t.Fatalf("edge replica = %+v, want edge depot with no manage cap", rep)
	}
	if len(rew.Extents[0].Replicas) != 2 {
		t.Fatal("origin replica lost during rewrite")
	}
	if ex.Extents[0].Replicas[0].Depot != depotAddr {
		t.Fatal("rewrite mutated the source exNode")
	}
	// Idempotent: a second rewrite adds nothing.
	if again := RewriteExNode(rew, edgeAddr, "r02c03"); len(again.Extents[0].Replicas) != 2 {
		t.Fatal("second rewrite duplicated the edge replica")
	}

	if err := Warm(context.Background(), ex, edgeAddr, "r02c03", nil); err != nil {
		t.Fatalf("warm: %v", err)
	}
	if st := cache.Stats(); st.Fills != 1 || st.Entries != 1 {
		t.Fatalf("stats after warm = %+v, want the extent cached", st)
	}
	// A client read after the warm is a pure edge hit.
	cl := &ibp.Client{Addr: edgeAddr}
	got, err := cl.Load(context.Background(), rep.ReadCap, rep.AllocOffset, int64(len(payload)))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("post-warm load: %v", err)
	}
	if st := cache.Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want post-warm read to hit", st)
	}
}
