// Command perfbench is the lonviz benchmark. It deploys the real stack in
// one process — IBP depots, DVS, L-Bone, server agent, client agents,
// viewers, an edge cache and netsim-shaped links — and drives closed-loop
// browsing sessions against it for a fixed time:
//
//	perfbench --workload wan_paced --seed 3 --seconds 12 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the same timed phase untraced, then again with spans recorded around
// every layer boundary, then a direct layer walk, and reports the
// per-layer metrics. The last line of standard output is one JSON object;
// the lines before it are a human-readable table with sample counts and
// the host fingerprint. LAYERS.md maps each layer metric to the end-to-end
// metric and workload it should move.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"lonviz/internal/lightfield"
	"lonviz/internal/obs"
)

// setups is how many times a run deploys and publishes; setup_s is the
// median. Every deployment but the last is torn down right away.
const setups = 5

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "timed phase length in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// The benchmark measures the program with its observability off, as
	// lfbench does: warn-level events (failovers) still reach stderr.
	if err := obs.ConfigureDefaultLogger("warn", "kv"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(context.Background(), w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
}

// metric is one reported value with its unit and sample count.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// result is one run's outcome.
type result struct {
	Fingerprint fingerprint       `json:"fingerprint"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Metrics     map[string]metric `json:"metrics"`
	Notes       []string          `json:"notes,omitempty"`
}

// print writes the table, then the one-line JSON summary the contract
// asks for as the last line.
func (r *result) print(f *os.File) {
	fp := r.Fingerprint
	fmt.Fprintf(f, "# perfbench %s seed=%d seconds=%d trace=%v\n", fp.Workload, fp.Seed, fp.Seconds, fp.Trace)
	fmt.Fprintf(f, "# host nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s source=%s\n",
		fp.NumCPU, fp.GOMAXPROCS, fp.CPUModel, fp.GoVersion, fp.Commit, fp.SourceDigest)
	fmt.Fprintf(f, "# links %s | %s\n", fp.LAN, fp.WAN)
	for _, n := range r.Notes {
		fmt.Fprintf(f, "# note: %s\n", n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(f, "%-36s %14.4f %-8s n=%d\n", n, m.Value, m.Unit, m.Samples)
	}
	type short struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]short `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]short, len(r.Metrics))}
	for n, m := range r.Metrics {
		out.Metrics[n] = short{m.Value, m.Unit}
	}
	line, _ := json.Marshal(out) // plain floats, strings and ints always encode
	fmt.Fprintln(f, string(line))
}

// run performs one benchmark run: set-up, the timed phase(s), checks and
// teardown.
func run(ctx context.Context, w workload, seed int64, dur time.Duration, traced bool) (*result, error) {
	baseline := runtime.NumGoroutine()
	datasetSeed := deriveSeed(seed, "dataset", 0)

	var d *deployment
	var setupSec, deploySec, publishSec []float64
	leaked := 0
	var setupDepotIn int64
	for i := 0; i < setups; i++ {
		dep, err := deploy(ctx, w.cs, datasetSeed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupSec = append(setupSec, dep.setupSec())
		deploySec = append(deploySec, dep.deploySec)
		publishSec = append(publishSec, dep.publishSec)
		if i < setups-1 {
			dep.close()
			leaked = max(leaked, settleGoroutines(baseline, 3*time.Second))
			continue
		}
		d = dep
		setupDepotIn = dep.w.depot.read.Load()
	}
	closed := false
	defer func() {
		if !closed {
			d.close()
		}
	}()

	r := &runner{d: d, w: w, seed: seed}
	var err error
	if r.truth, err = groundTruth(ctx, d); err != nil {
		return nil, err
	}

	res := &result{
		Fingerprint: takeFingerprint(w, seed, int(dur/time.Second), traced, d.cfg.LAN, d.cfg.WAN),
		Correct:     true,
		Metrics:     map[string]metric{},
	}
	// A traced run splits its time: half untraced, then the same sessions
	// traced, so the two halves give the tracing overhead.
	plainDur := dur
	if traced {
		plainDur = dur / 2
	}
	plain, err := r.phase(ctx, plainDur, nil)
	if err != nil {
		return nil, err
	}
	res.count(plain)
	if !traced {
		res.endToEnd(d, plain, setupSec)
	} else {
		tr := newTracer()
		rt := startRuntimeWindow()
		tphase, err := r.phase(ctx, dur-plainDur, tr)
		if err != nil {
			return nil, err
		}
		rtw := rt.stop()
		res.count(tphase)
		wk := r.layerWalk(ctx, firstSeen(tphase), tr)
		if wk.mismatches > 0 {
			res.Correct = false
			res.Notes = append(res.Notes, fmt.Sprintf("layer walk: %d view sets differ from ground truth", wk.mismatches))
		}
		res.perLayer(d, plain, tphase, wk, rtw, setupInfo{deploySec, publishSec, setupDepotIn})
		path := filepath.Join(".bench_out", fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
		if err := tr.writeFile(path, res.Fingerprint); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		res.Notes = append(res.Notes, fmt.Sprintf("%d spans written to %s", tr.count(), path))
	}

	d.close()
	closed = true
	leaked = max(leaked, settleGoroutines(baseline, 3*time.Second))
	// Warn-level events show faults the access counts hide: a failover
	// that a retry absorbed, or one that outlived its agent.
	events := obs.DefaultLogger().Events()
	failovers := 0
	for _, ev := range events {
		if ev.Name == obs.EvLorsFailover {
			failovers++
		}
	}
	if traced {
		res.add("runtime.leaked_goroutines", float64(leaked), "count", setups)
		res.add("log.warn_events", float64(len(events)), "count", 1)
		res.add("log.failover_events", float64(failovers), "count", 1)
	}
	if leaked > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%d goroutines outlived a torn-down deployment", leaked))
	}
	if len(events) > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%d warn events logged, %d of them %s", len(events), failovers, obs.EvLorsFailover))
	}
	if err := res.writeFile(); err != nil {
		return nil, err
	}
	return res, nil
}

// count folds one phase's attempts, failures and output checks into the
// result.
func (r *result) count(p *phaseResult) {
	for _, s := range p.sessions {
		r.Attempted += len(s.accesses)
		for _, a := range s.accesses {
			if a.failed {
				r.Failed++
			}
		}
		if s.mismatches > 0 {
			r.Correct = false
		}
		for _, e := range s.errs {
			if len(r.Notes) < 20 {
				r.Notes = append(r.Notes, e)
			}
		}
	}
}

func (r *result) add(name string, v float64, unit string, samples int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// writeFile keeps the full result, with fingerprint and sample counts,
// under .bench_out.
func (r *result) writeFile() error {
	fp := r.Fingerprint
	trace := 0
	if fp.Trace {
		trace = 1
	}
	path := filepath.Join(".bench_out", fmt.Sprintf("result-%s-seed%d-trace%d.json", fp.Workload, fp.Seed, trace))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// groundTruth generates every view set with the deployment's procedural
// generator and keeps a digest of each; decoded outputs are compared
// against these. Digests keep the benchmark's own memory out of
// heap_peak_mb.
func groundTruth(ctx context.Context, d *deployment) (map[lightfield.ViewSetID][sha256.Size]byte, error) {
	gen, err := lightfield.NewProceduralGenerator(d.params, d.cfg.Seed)
	if err != nil {
		return nil, err
	}
	out := make(map[lightfield.ViewSetID][sha256.Size]byte)
	for _, id := range d.params.AllViewSets() {
		vs, err := gen.GenerateViewSet(ctx, id)
		if err != nil {
			return nil, err
		}
		out[id] = digest(vs)
	}
	return out, nil
}

// digest hashes a view set's identity, geometry and every pixel.
func digest(vs *lightfield.ViewSet) [sha256.Size]byte {
	h := sha256.New()
	fmt.Fprintf(h, "%v %d %d %d\n", vs.ID, vs.L, vs.Res, len(vs.Views))
	for _, im := range vs.Views {
		h.Write(im.Pix)
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// firstSeen lists the distinct view sets a phase accessed, in the order
// they were first accessed.
func firstSeen(p *phaseResult) []lightfield.ViewSetID {
	seen := map[lightfield.ViewSetID]bool{}
	var out []lightfield.ViewSetID
	for _, s := range p.sessions {
		for _, id := range s.order {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}
