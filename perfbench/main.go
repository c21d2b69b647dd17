// Command perfbench is the repository benchmark: it runs one named
// workload against in-process daemons built from the library's public
// APIs, checks their outputs against a single serial daemon fed the same
// recording, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as the last line of standard output.
//
//	perfbench --workload live --seed 7 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"rrr"
	"rrr/internal/experiments"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string
	outdir   string
	setups   int // set-ups per untraced run; setup_s is their median
}

func defaultConfig() config {
	return config{scale: "paper", outdir: filepath.Join(".bench_build", "perfbench"), setups: 3}
}

// The query stream: batch-64 POST /v1/stale bodies, sent open-loop at
// queryRate batches per second. The rate keeps the paced phase well below
// the capacity phase's throughput, so its latencies are not a backlog.
const (
	queryRate  = 300
	queryBatch = 64
)

// Shares of --seconds given to each phase.
const (
	roundsShare    = 0.9  // ingest: rounds of one pass and one query slice (at least minPasses)
	sliceShare     = 0.04 // ingest: one round's open-loop query slice
	ingestCapShare = 0.1  // ingest: closed-loop capacity
	paceShare      = 0.7  // live/routed: the paced feed
	capShare       = 0.2  // live/routed: closed-loop capacity
	minPasses      = 2
)

// scaleFor sizes the feed. "paper" is the paper-scale topology and corpus
// over two simulated days (the first is engine calibration, the second
// emits signals); "tiny" is the quick-scale substrate for the smoke tests.
func scaleFor(name string, seed int64) (experiments.Scale, error) {
	var sc experiments.Scale
	switch name {
	case "paper":
		sc = experiments.PaperScale()
		sc.Days = 2
	case "tiny":
		sc = experiments.QuickScale()
		sc.Days = 1
		sc.PublicPerWindow = 10
	default:
		return sc, fmt.Errorf("unknown scale %q", name)
	}
	// The seed picks the measurement platform (probe placement, the
	// corpus and public vantage points) over the scale's fixed topology.
	sc.PlatCfg.Seed = seed
	return sc, nil
}

// metric names, units and the order they print in.
var (
	endToEnd = []struct{ name, unit string }{
		{"setup_s", "s"},
		{"ingest_records_per_s", "1/s"},
		{"heap_live_mb", "MiB"},
		{"query_p50_ms", "ms"},
		{"freshness_p50_ms", "ms"},
	}
	perLayer = []struct{ name, unit string }{
		{"netsim.generate_s", "s"},
		{"setup.prime_s", "s"},
		{"feedwire.records", "count"},
		{"feedwire.bytes", "bytes"},
		{"feedwire.read_s", "s"},
		{"feedwire.reconnects", "count"},
		{"pipeline.wait_s", "s"},
		{"wal.appends", "count"},
		{"wal.bytes", "bytes"},
		{"wal.append_s", "s"},
		{"wal.sync_s", "s"},
		{"core.observe_s", "s"},
		{"core.close_s", "s"},
		{"core.close_p50_ms", "ms"},
		{"core.close_p95_ms", "ms"},
		{"core.windows", "count"},
		{"core.signals", "count"},
		{"events.tap_s", "s"},
		{"core.bytes_per_pair", "B/pair"},
		{"runtime.alloc_bytes_per_record", "B/record"},
		{"runtime.gc_cycles", "count"},
		{"server.stale_s", "s"},
		{"server.stale_p50_ms", "ms"},
		{"server.stale_p99_ms", "ms"},
		{"server.cache_hit_ratio", "ratio"},
		{"server.bytes_per_verdict", "B/verdict"},
		{"server.shed", "count"},
		{"server.publish_s", "s"},
		{"server.stream_lag_p50_ms", "ms"},
		{"router.stale_p50_ms", "ms"},
		{"router.stale_p99_ms", "ms"},
		{"router.self_s", "s"},
		{"router.subrequests", "count"},
		{"router.subrequest_p50_ms", "ms"},
		{"router.failovers", "count"},
		{"router.shed", "count"},
		{"router.unlinked_frac", "ratio"},
		{"merger.lag_p50_ms", "ms"},
		{"merger.lag_p95_ms", "ms"},
		{"merger.replica_dedup", "count"},
		{"merger.gaps", "count"},
		{"loadgen.sent", "count"},
		{"loadgen.late_p99_ms", "ms"},
		{"trace.overhead_frac", "ratio"},
	}
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	problems []string
	info     map[string]any
}

func main() {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: ingest, live or routed")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for the simulated feed and the query keys")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	fs.StringVar(&cfg.outdir, "outdir", cfg.outdir, "directory for WAL segments and trace files")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.trace = *trace == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload ingest|live|routed, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", p)
	}
	info, _ := json.Marshal(map[string]any{"perfbench": res.info})
	fmt.Println(string(info))
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func newRunCtx(cfg config) (*runCtx, error) {
	sc, err := scaleFor(cfg.scale, cfg.seed)
	if err != nil {
		return nil, err
	}
	// One SSE subscriber plus the query connections stay within nproc;
	// the capacity phase runs after the subscriber has detached.
	n := runtime.NumCPU()
	return &runCtx{cfg: cfg, sc: sc, conns: max(1, n-1), capConns: n}, nil
}

// initQueries renders the query and output-check bodies from the seed:
// uniform draws from the tracked corpus keys.
func (c *runCtx) initQueries(keys []rrr.Key) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Src != keys[j].Src {
			return keys[i].Src < keys[j].Src
		}
		return keys[i].Dst < keys[j].Dst
	})
	c.pool = newQueryPool(keys, 1024, queryBatch, rand.New(rand.NewSource(c.cfg.seed)))
	c.checks = newQueryPool(keys, 8, queryBatch, rand.New(rand.NewSource(c.cfg.seed+1))).bodies
}

func run(cfg config) (*result, error) {
	c, err := newRunCtx(cfg)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.outdir, 0o755); err != nil {
		return nil, err
	}
	build := workloads[cfg.workload]
	res := &result{Metrics: make(map[string]metricValue)}
	var rec *recording
	var phases []*phase

	if !cfg.trace {
		// Set up several times (feed generation, priming, worker start)
		// and measure on the first; setup_s is the median. The other
		// set-ups follow the measured phase, so the set-up times sample
		// both ends of the run.
		var times []float64
		setup := func() (rig, error) {
			prev := rec
			rec = nil
			runtime.GC() // start every set-up from the same clean heap
			t0 := time.Now()
			var err error
			if rec, err = record(c.sc); err != nil {
				return nil, err
			}
			r, err := build(c, rec, nil)
			if err != nil {
				return nil, err
			}
			times = append(times, time.Since(t0).Seconds())
			if prev != nil && prev.digest != rec.digest {
				res.problems = append(res.problems, "the recorded feed differs between set-ups of one seed")
			}
			return r, nil
		}
		r, err := setup()
		if err != nil {
			return nil, err
		}
		c.initQueries(r.keys())
		runtime.GC()
		ph, err := r.measure(nil)
		r.stop()
		if err != nil {
			return nil, err
		}
		for len(times) < cfg.setups {
			if r, err = setup(); err != nil {
				return nil, err
			}
			r.stop()
		}
		res.info = map[string]any{"setup_times_s": append([]float64(nil), times...)}
		for k, v := range ph.info {
			res.info[k] = v
		}
		ph.e2e["setup_s"] = median(times)
		phases = append(phases, ph)
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{ph.e2e[m.name], m.unit}
		}
		// Measured and shown, but not gated: their run-to-run spread on a
		// shared 2-core machine is wider than any bound a gate could use.
		for _, name := range []string{"query_p99_ms", "query_capacity_rps", "freshness_p95_ms"} {
			res.info[name] = ph.e2e[name]
		}
	} else {
		// Traced: one set-up, an untraced phase for the overhead baseline,
		// then a traced phase on freshly primed daemons.
		t0 := time.Now()
		if rec, err = record(c.sc); err != nil {
			return nil, err
		}
		gen := time.Since(t0)
		r, err := build(c, rec, nil)
		if err != nil {
			return nil, err
		}
		c.initQueries(r.keys())
		runtime.GC()
		plain, err := r.measure(nil)
		tracked := r.tracked()
		r.stop()
		if err != nil {
			return nil, err
		}
		r = nil
		// The heap without the daemons; it also leaves the traced phase a
		// clean heap.
		heap0 := settledHeapMB()
		tr := newTracer()
		t1 := time.Now()
		r, err = build(c, rec, tr)
		if err != nil {
			return nil, err
		}
		primeS := time.Since(t1)
		traced, err := r.measure(tr)
		r.stop()
		if err != nil {
			return nil, err
		}
		phases = append(phases, plain, traced)
		l := traced.layers
		l["netsim.generate_s"] = gen.Seconds()
		l["setup.prime_s"] = primeS.Seconds()
		// From the untraced phase, so the tracer's spans are not counted.
		if tracked > 0 {
			l["core.bytes_per_pair"] = (plain.e2e["heap_live_mb"] - heap0) * (1 << 20) / float64(tracked)
		}
		// Overhead on the workload's throughput metric.
		key := "query_capacity_rps"
		if cfg.workload == "ingest" {
			key = "ingest_records_per_s"
		}
		if traced.e2e[key] > 0 {
			l["trace.overhead_frac"] = plain.e2e[key]/traced.e2e[key] - 1
		}
		path := filepath.Join(cfg.outdir, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{l[m.name], m.unit}
		}
	}

	ref, err := runReference(rec, c.checks)
	if err != nil {
		return nil, err
	}
	if cfg.scale == "paper" {
		bad, err := checkGolden(cfg.seed, goldenOf(rec, ref))
		if err != nil {
			return nil, err
		}
		res.problems = append(res.problems, bad...)
	}
	queries, failedQueries := 0, 0
	for _, ph := range phases {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		queries += ph.queries
		failedQueries += ph.queryFailed
		res.problems = append(res.problems, compareOutputs(ph.out, ref)...)
	}
	res.Correct = len(res.problems) == 0
	for name, m := range res.Metrics {
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			// A failed query's latency is +Inf; JSON cannot carry it, and
			// the run already counts the failure.
			res.Metrics[name] = metricValue{math.MaxFloat64, m.Unit}
		}
	}
	if res.info == nil {
		res.info = make(map[string]any)
	}
	for k, v := range map[string]any{
		"workload":             cfg.workload,
		"seed":                 cfg.seed,
		"trace":                cfg.trace,
		"scale":                fmt.Sprintf("%s topology, %d days, %d windows of %ds", cfg.scale, c.sc.Days, c.sc.Days*86400/int(c.sc.WindowSec), c.sc.WindowSec),
		"records":              rec.records(),
		"nproc":                runtime.NumCPU(),
		"gomaxprocs":           runtime.GOMAXPROCS(0),
		"go":                   runtime.Version(),
		"git_sha":              envOr("PERFBENCH_GIT_SHA", "unknown"),
		"query_connections":    c.conns,
		"capacity_connections": c.capConns,
		"query_rate":           queryRate,
		"problems":             res.problems,
	} {
		res.info[k] = v
	}
	if queries > 0 {
		res.info["query_failed_frac"] = float64(failedQueries) / float64(queries)
	}
	return res, nil
}

// compareOutputs lists every way a phase's outputs differ from the
// reference daemon's.
func compareOutputs(o outputs, ref *reference) []string {
	var out []string
	for i, d := range o.signals {
		if d != ref.signals {
			out = append(out, fmt.Sprintf("ingest pass %d signals %v, reference %v", i, d, ref.signals))
		}
	}
	for i, d := range o.events {
		if d != ref.events {
			out = append(out, fmt.Sprintf("ingest pass %d routing events %v, reference %v", i, d, ref.events))
		}
	}
	if o.stream != "" && o.stream != ref.stream {
		out = append(out, fmt.Sprintf("signal stream (%d bytes) differs from the reference's (%d bytes)", len(o.stream), len(ref.stream)))
	}
	if len(o.batches) != len(ref.batches) {
		out = append(out, fmt.Sprintf("%d check batches answered, reference %d", len(o.batches), len(ref.batches)))
	}
	for i := range o.batches {
		if i < len(ref.batches) && string(o.batches[i]) != string(ref.batches[i]) {
			out = append(out, fmt.Sprintf("check batch %d differs from the reference (%d vs %d bytes)", i, len(o.batches[i]), len(ref.batches[i])))
		}
	}
	return out
}

func envOr(k, def string) string {
	if v := os.Getenv(k); v != "" {
		return v
	}
	return def
}
