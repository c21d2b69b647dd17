package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rrr"
	"rrr/internal/cluster"
	"rrr/internal/events"
	"rrr/internal/experiments"
	"rrr/internal/feedwire"
	"rrr/internal/server"
	"rrr/internal/wal"
)

// runCtx is what every workload shares within one run.
type runCtx struct {
	cfg      config
	sc       experiments.Scale
	pool     queryPool // open- and closed-loop query bodies
	checks   [][]byte  // output-check batches, posted at EOF
	conns    int       // open-loop query connections, beside the subscriber
	capConns int       // closed-loop connections, once the subscriber is gone
}

// outputs are a measured phase's results that must equal the reference.
type outputs struct {
	signals []digest // one per pipeline run that must match ref.signals
	events  []digest
	stream  string   // SSE frames; empty when the workload has no subscriber
	batches [][]byte // check-batch responses at EOF
}

// phase is one measured phase: end-to-end numbers, and per-layer numbers
// when traced.
type phase struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int
	failed    int
	// queries and queryFailed count load-generator requests only, for
	// query_failed_frac.
	queries     int
	queryFailed int
	out         outputs
	info        map[string]any // shown on the info line, not gated
}

func newPhase() *phase {
	return &phase{e2e: make(map[string]float64), layers: make(map[string]float64)}
}

// rig is a workload's daemons after set-up, ready for one measured phase.
type rig interface {
	// measure runs the measured phase; tr is the tracer the rig was
	// built with (nil for an untraced run).
	measure(tr *tracer) (*phase, error)
	// tracked is the number of pairs the rig's daemons track together.
	tracked() int
	// keys are the corpus keys queries draw from.
	keys() []rrr.Key
	stop()
}

type builder func(c *runCtx, rec *recording, tr *tracer) (rig, error)

var workloads = map[string]builder{
	"ingest": buildIngest,
	"live":   buildLive,
	"routed": buildRouted,
}

// queryMetrics fills the read-path end-to-end metrics from the paced
// (open-loop) and capacity (closed-loop) load phases.
func queryMetrics(p *phase, open, capacity loadResult) {
	p.e2e["query_p50_ms"] = quantile(open.lat, 0.50)
	p.e2e["query_p99_ms"] = open.p99()
	p.e2e["query_capacity_rps"] = capacity.rate
	p.queries = open.attempted + capacity.attempted
	p.queryFailed = open.failed + capacity.failed
	p.attempted += p.queries
	p.failed += p.queryFailed
	p.layers["loadgen.sent"] = float64(open.attempted + capacity.attempted)
	p.layers["loadgen.late_p99_ms"] = quantile(open.late, 0.99)
}

// runtimeLayers fills the runtime layer metrics over a phase.
func runtimeLayers(p *phase, m0, m1 runtime.MemStats, records int) {
	p.layers["runtime.alloc_bytes_per_record"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(records)
	p.layers["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
}

// mergeLayers fills the pipeline, WAL, core and events layer metrics
// from the merge-goroutine hooks of every pipeline in the phase.
func mergeLayers(p *phase, hooks []*mergeHooks, ob obsPhase, after map[string]float64) {
	wait := ob.delta(after, "rrr_pipeline_merge_stall_seconds_sum")
	var observe, appendD, syncD, tapD, publish time.Duration
	var closes []float64
	var closeSum time.Duration
	signals := 0
	for _, h := range hooks {
		observe += h.observeGap
		appendD += h.appendDur
		syncD += h.syncDur
		tapD += h.tapDur
		publish += h.sinkDur + h.onCloseDur
		signals += h.signals
		for _, g := range h.closeGap {
			closes = append(closes, ms(g))
			closeSum += g
		}
	}
	p.layers["pipeline.wait_s"] = wait
	p.layers["core.observe_s"] = math.Max(0, observe.Seconds()-wait)
	p.layers["core.close_s"] = closeSum.Seconds()
	p.layers["core.windows"] = float64(len(closes))
	p.layers["core.close_p50_ms"] = quantile(closes, 0.50)
	p.layers["core.close_p95_ms"] = quantile(closes, 0.95)
	p.layers["core.signals"] = float64(signals)
	p.layers["events.tap_s"] = tapD.Seconds()
	p.layers["wal.append_s"] = appendD.Seconds()
	p.layers["wal.sync_s"] = syncD.Seconds()
	p.layers["wal.appends"] = ob.delta(after, "rrr_wal_appends_total")
	p.layers["wal.bytes"] = ob.delta(after, "rrr_wal_append_bytes_total")
	p.layers["server.publish_s"] = publish.Seconds()
}

// serverLayers fills the worker serving-layer metrics.
func serverLayers(p *phase, tr *tracer, handlers []*tracedHandler, ob obsPhase, after map[string]float64) {
	lat := tr.spanDurations("server.stale")
	var sum float64
	for _, l := range lat {
		sum += l
	}
	p.layers["server.stale_s"] = sum / 1000
	p.layers["server.stale_p50_ms"] = quantile(lat, 0.50)
	p.layers["server.stale_p99_ms"] = quantile(lat, 0.99)
	hits := ob.delta(after, "rrr_server_verdict_cache_hits_total")
	misses := ob.delta(after, "rrr_server_verdict_cache_misses_total")
	if hits+misses > 0 {
		p.layers["server.cache_hit_ratio"] = hits / (hits + misses)
	}
	var bytes, verdicts int64
	for _, h := range handlers {
		h.mu.Lock()
		bytes += h.bytes
		verdicts += h.verdicts
		h.mu.Unlock()
	}
	if verdicts > 0 {
		p.layers["server.bytes_per_verdict"] = float64(bytes) / float64(verdicts)
	}
	p.layers["server.shed"] = ob.delta(after, "rrr_server_shed_total")
}

// freshness is, per window, the marker's arrival minus the time by which
// everything needed to close the window had been released.
func freshness(sched schedule, start time.Time, markers map[int64]time.Time, ut, tt []int64) ([]float64, error) {
	out := make([]float64, 0, sched.windows)
	for w := 0; w < sched.windows; w++ {
		at, ok := markers[sched.windowStart(w)]
		if !ok {
			return nil, fmt.Errorf("no window marker for window %d", sched.windowStart(w))
		}
		out = append(out, ms(at.Sub(start.Add(sched.boundaryDue(w, ut, tt)))))
	}
	return out, nil
}

func stopAfter(d time.Duration) <-chan struct{} {
	ch := make(chan struct{})
	time.AfterFunc(d, func() { close(ch) })
	return ch
}

func (c *runCtx) share(f float64) time.Duration {
	return time.Duration(f * c.cfg.seconds * float64(time.Second))
}

// ---- ingest ----

// countingListener counts the bytes the feed server writes.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

type ingestRig struct {
	c      *runCtx
	rec    *recording
	fs     *feedwire.Server
	addr   string
	bytes  atomic.Int64
	served chan struct{}
	first  *primed
	tracks int
}

// buildIngest loads the recording into an in-process feed server on a
// loopback listener (rrrfeedd's role) and primes the first daemon.
func buildIngest(c *runCtx, rec *recording, _ *tracer) (rig, error) {
	fs, err := feedwire.NewServer(feedwire.Config{WindowSec: rec.sc.WindowSec})
	if err != nil {
		return nil, err
	}
	for _, u := range rec.updates {
		fs.AppendUpdate(u)
	}
	for _, t := range rec.traces {
		fs.AppendTrace(t)
	}
	fs.CloseStream(feedwire.StreamUpdates, nil)
	fs.CloseStream(feedwire.StreamTraces, nil)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	g := &ingestRig{c: c, rec: rec, fs: fs, addr: lis.Addr().String(), served: make(chan struct{})}
	go func() {
		defer close(g.served)
		fs.Serve(countingListener{lis, &g.bytes})
	}()
	if g.first, err = prime(rec, nil, 0); err != nil {
		g.stop()
		return nil, err
	}
	g.tracks = g.first.tracked
	return g, nil
}

func (g *ingestRig) stop() {
	g.fs.Close()
	<-g.served
}

// ingestPass is one run of the write path: the recording from the feed
// server over loopback into RunPipeline with the WAL (default fsync
// policy) and the event detector tapped, as fast as it is accepted.
type ingestPass struct {
	elapsed time.Duration
	fresh   []float64
	signals digest
	events  digest
	hooks   *mergeHooks
	read    time.Duration
	records int64
}

func (g *ingestRig) pass(i int, p *primed, tr *tracer) (*ingestPass, error) {
	dir := filepath.Join(g.c.cfg.outdir, fmt.Sprintf("wal-%d-%d", os.Getpid(), i))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	w, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	if _, err := w.Replay(nil); err != nil {
		return nil, err
	}
	conn := feedwire.NewConnector(feedwire.ConnectorConfig{Addr: g.addr})
	defer conn.Close()

	base := time.Now()
	ut, tt := updateTimes(g.rec.updates), traceTimes(g.rec.traces)
	arrU, arrT := newArrivals(base, len(ut)), newArrivals(base, len(tt))
	res := &ingestPass{}
	p.det.SetSink(func(ev events.Event) { res.events.add(fmt.Sprint(ev)) })
	closeAt := make(map[int64]time.Duration)
	cfg := rrr.PipelineConfig{
		OpenUpdates: func(since int64) (rrr.UpdateSource, error) {
			s, err := conn.OpenUpdates(since)
			if err != nil {
				return nil, err
			}
			var src rrr.UpdateSource = stamped[rrr.Update]{s, arrU}
			if res.hooks != nil {
				src = timed[rrr.Update]{src, &res.hooks.feeds}
			}
			return src, nil
		},
		OpenTraces: func(since int64) (rrr.TraceSource, error) {
			s, err := conn.OpenTraces(since)
			if err != nil {
				return nil, err
			}
			var src rrr.TraceSource = stamped[*rrr.Traceroute]{s, arrT}
			if res.hooks != nil {
				src = timed[*rrr.Traceroute]{src, &res.hooks.feeds}
			}
			return src, nil
		},
		Sink:          func(s rrr.Signal) { res.signals.add(s.String()) },
		Tap:           p.det,
		WAL:           w,
		Retry:         rrr.RetryPolicy{MaxRetries: 5, Backoff: 500 * time.Millisecond, ContinueOnDeadFeed: true},
		DedupAdjacent: true,
		OnWindowClose: func(ws int64) { closeAt[ws] = time.Since(base) },
	}
	if tr != nil {
		res.hooks = newMergeHooks(tr, 0, w, p.det, cfg.Sink, cfg.OnWindowClose)
		cfg.WAL, cfg.Tap, cfg.Sink, cfg.OnWindowClose = res.hooks, res.hooks, res.hooks.Sink, res.hooks.OnWindowClose
	}
	t0 := time.Now()
	if err := rrr.RunPipeline(context.Background(), p.mon, cfg); err != nil {
		return nil, fmt.Errorf("ingest pipeline: %w", err)
	}
	res.elapsed = time.Since(t0)
	if res.hooks != nil {
		res.read = time.Duration(res.hooks.feeds.busy.Load())
		res.records = res.hooks.feeds.records.Load()
	}

	// Freshness from arrival: the feed is not paced, so a window is due
	// once the later of the two feeds' boundary records left the wire.
	sched := newSchedule(g.rec.sc.WindowSec, 0, ut, tt)
	bu, bt := sched.boundaries(ut), sched.boundaries(tt)
	for w := 0; w < sched.windows; w++ {
		at, ok := closeAt[sched.windowStart(w)]
		if !ok {
			return nil, fmt.Errorf("ingest: window %d never closed", sched.windowStart(w))
		}
		ready := arrU.get(bu[w])
		if a := arrT.get(bt[w]); a > ready {
			ready = a
		}
		res.fresh = append(res.fresh, ms(at-ready))
	}
	return res, nil
}

func (g *ingestRig) tracked() int { return g.tracks }

func (g *ingestRig) keys() []rrr.Key { return g.first.mon.Tracked() }

// measure interleaves the write path with the read path: each round is
// one ingest pass on a freshly primed monitor, then a slice of the
// open-loop query stream against a daemon serving the first pass's final
// state (the same for every pass). Rounds run until the workload's share
// of --seconds is spent; the closed-loop capacity phase follows. Spreading
// the passes over the run, rather than running them back to back, lets a
// burst of interference from outside the benchmark slow a few passes
// instead of the whole sample.
func (g *ingestRig) measure(tr *tracer) (*phase, error) {
	ph := newPhase()
	ob := startObs()
	deadline := time.Now().Add(g.c.share(roundsShare))
	var rates, fresh []float64
	var passes []*ingestPass
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	var sh *tracedHandler
	var wrap func(http.Handler) http.Handler
	if tr != nil {
		wrap = func(h http.Handler) http.Handler {
			sh = &tracedHandler{tr: tr, name: "server.stale", next: h}
			return sh
		}
	}
	client := newClient(g.c.capConns)
	defer client.CloseIdleConnections()
	var qob obsPhase
	var open loadResult
	var alloc, gcs uint64
	p := g.first
	g.first = nil
	for i := 0; ; i++ {
		if i > 0 {
			var err error
			if p, err = prime(g.rec, nil, 0); err != nil {
				return nil, err
			}
		}
		runtime.GC() // the previous pass's monitor is garbage now
		m0 := memStats()
		ip, err := g.pass(i, p, tr)
		m1 := memStats()
		ph.attempted++
		if err != nil {
			return nil, err
		}
		alloc += m1.TotalAlloc - m0.TotalAlloc
		gcs += uint64(m1.NumGC - m0.NumGC)
		passes = append(passes, ip)
		rates = append(rates, float64(g.rec.records())/ip.elapsed.Seconds())
		fresh = append(fresh, ip.fresh...)
		ph.out.signals = append(ph.out.signals, ip.signals)
		ph.out.events = append(ph.out.events, ip.events)
		if d == nil {
			// Read path over the final state, with no feed running.
			if d, err = startDaemon(p, nil, wrap); err != nil {
				return nil, err
			}
			qob = startObs()
		}
		runtime.GC() // the pass's garbage is not the read path's
		open.add(openLoop(client, d.url, g.c.pool, queryRate, g.c.conns, time.Now(), stopAfter(g.c.share(sliceShare)), int64(i)<<24, tr))
		if i+1 >= minPasses && time.Now().After(deadline) {
			break
		}
	}
	after := obsSnapshot()
	ph.info = map[string]any{"ingest_pass_rates": append([]float64(nil), rates...)}
	ph.e2e["ingest_records_per_s"] = median(rates)
	ph.e2e["freshness_p50_ms"] = quantile(fresh, 0.50)
	ph.e2e["freshness_p95_ms"] = quantile(fresh, 0.95)

	runtime.GC()
	capacity := closedLoop(client, d.url, g.c.pool, g.c.capConns, g.c.share(ingestCapShare), 1<<32, tr)
	client.CloseIdleConnections()
	queryMetrics(ph, open, capacity)
	ph.e2e["heap_live_mb"] = heapLiveMB()
	tr.end()
	var err error
	if ph.out.batches, err = fetchBatches(d.url, g.c.checks); err != nil {
		return nil, err
	}
	if tr != nil {
		var hooks []*mergeHooks
		var read time.Duration
		var records int64
		for _, ip := range passes {
			hooks = append(hooks, ip.hooks)
			read += ip.read
			records += ip.records
		}
		mergeLayers(ph, hooks, ob, after)
		// The sink and on-close hooks are the benchmark's own digest and
		// clock here: no server runs on the write path.
		ph.layers["server.publish_s"] = 0
		ph.layers["feedwire.records"] = float64(records)
		ph.layers["feedwire.bytes"] = float64(g.bytes.Load())
		ph.layers["feedwire.read_s"] = read.Seconds()
		ph.layers["feedwire.reconnects"] = ob.delta(after, "rrr_feedwire_reconnects_total")
		ph.layers["runtime.alloc_bytes_per_record"] = float64(alloc) / float64(len(passes)*g.rec.records())
		ph.layers["runtime.gc_cycles"] = float64(gcs)
		serverLayers(ph, tr, []*tracedHandler{sh}, qob, obsSnapshot())
	}
	return ph, nil
}

// ---- live and routed ----

// servedRig is K serving daemons fed on the live schedule, queried
// directly (K = 1, live) or through the router (routed).
type servedRig struct {
	c       *runCtx
	rec     *recording
	routed  bool
	daemons []*daemon
	front   *routerFront
	sub     *subscriber
	url     string
	// handlers are the workers' traced handlers (traced runs only).
	handlers []*tracedHandler
}

func buildLive(c *runCtx, rec *recording, tr *tracer) (rig, error) {
	return buildServed(c, rec, false, tr)
}

func buildRouted(c *runCtx, rec *recording, tr *tracer) (rig, error) {
	return buildServed(c, rec, true, tr)
}

// routedWorkers is the routed topology's worker count; the ring places
// each partition on a primary and a standby (RF = 2).
const routedWorkers = 2

func buildServed(c *runCtx, rec *recording, routed bool, tr *tracer) (rig, error) {
	s := &servedRig{c: c, rec: rec, routed: routed}
	var ring *cluster.Ring
	n := 1
	if routed {
		var err error
		if ring, err = cluster.NewRing(routedWorkers, 0); err != nil {
			return nil, err
		}
		n = routedWorkers
	}
	var urls []string
	for i := 0; i < n; i++ {
		p, err := prime(rec, ring, i)
		if err != nil {
			s.stop()
			return nil, err
		}
		var ident *server.WorkerIdentity
		if ring != nil {
			ident = &server.WorkerIdentity{ID: i, Workers: n, Partitions: ring.OwnedPartitions(i), RF: ring.ReplicaFactor()}
		}
		var wrap func(http.Handler) http.Handler
		if tr != nil {
			wrap = func(h http.Handler) http.Handler {
				th := &tracedHandler{tr: tr, name: "server.stale", worker: i, next: h}
				s.handlers = append(s.handlers, th)
				return th
			}
		}
		d, err := startDaemon(p, ident, wrap)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.daemons = append(s.daemons, d)
		urls = append(urls, d.url)
	}
	s.url = urls[0]
	if routed {
		var wrap func(http.Handler) http.Handler
		if tr != nil {
			wrap = func(h http.Handler) http.Handler {
				return &tracedHandler{tr: tr, name: "router.stale", next: h}
			}
		}
		f, err := startRouter(urls, wrap)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.front = f
		s.url = f.url
	}
	sub, err := subscribe(s.url, lastWindowStart(rec))
	if err != nil {
		s.stop()
		return nil, err
	}
	s.sub = sub
	return s, nil
}

func (s *servedRig) stop() {
	if s.sub != nil {
		s.sub.cancel()
		<-s.sub.done
	}
	if s.front != nil {
		s.front.stop()
	}
	for _, d := range s.daemons {
		d.stop()
	}
}

func (s *servedRig) keys() []rrr.Key { return s.daemons[0].mon.Tracked() }

func (s *servedRig) tracked() int {
	n := 0
	for _, d := range s.daemons {
		n += d.tracked
	}
	return n
}

func (s *servedRig) measure(tr *tracer) (*phase, error) {
	ph := newPhase()
	ut, tt := updateTimes(s.rec.updates), traceTimes(s.rec.traces)
	sched := newSchedule(s.rec.sc.WindowSec, 0, ut, tt)
	sched.pace = s.c.share(paceShare) / time.Duration(sched.windows)

	ob := startObs()
	m0 := memStats()
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	errs := make([]error, len(s.daemons))
	walls := make([]time.Duration, len(s.daemons))
	hooks := make([]*mergeHooks, len(s.daemons))
	for i, d := range s.daemons {
		us, ts := newPacedSources(s.rec, sched, start)
		cfg := d.pipelineConfig(us, ts)
		if tr != nil {
			h := newMergeHooks(tr, i, nopLog{}, d.det, cfg.Sink, cfg.OnWindowClose)
			hooks[i] = h
			cfg.Updates, cfg.Traces = timed[rrr.Update]{us, &h.feeds}, timed[*rrr.Traceroute]{ts, &h.feeds}
			cfg.WAL, cfg.Tap, cfg.Sink, cfg.OnWindowClose = h, h, h.Sink, h.OnWindowClose
		}
		wg.Add(1)
		go func(i int, d *daemon, cfg rrr.PipelineConfig) {
			defer wg.Done()
			errs[i] = rrr.RunPipeline(context.Background(), d.mon, cfg)
			walls[i] = time.Since(start)
		}(i, d, cfg)
	}
	eof := make(chan struct{})
	go func() {
		wg.Wait()
		close(eof)
	}()
	client := newClient(s.c.capConns)
	open := openLoop(client, s.url, s.c.pool, queryRate, s.c.conns, start, eof, 0, tr)
	<-eof
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
	}
	after := obsSnapshot()
	stream, markers, serr := s.sub.finish(10 * time.Second)
	s.sub = nil
	if serr != nil {
		return nil, serr
	}
	fresh, err := freshness(sched, start, markers, ut, tt)
	if err != nil {
		return nil, err
	}
	ph.out.stream = stream
	ph.e2e["freshness_p50_ms"] = quantile(fresh, 0.50)
	ph.e2e["freshness_p95_ms"] = quantile(fresh, 0.95)
	// The rate the paced feed was ingested at: records over the time from
	// the first release to the last pipeline's EOF. The schedule sets it
	// unless a daemon falls behind, so here it checks that ingest keeps
	// up beside the queries; the ingest workload measures capacity.
	var wall time.Duration
	for _, w := range walls {
		wall = max(wall, w)
	}
	ph.e2e["ingest_records_per_s"] = float64(s.rec.records()) / wall.Seconds()
	m1 := memStats()

	runtime.GC()
	capacity := closedLoop(client, s.url, s.c.pool, s.c.capConns, s.c.share(capShare), 1<<32, tr)
	client.CloseIdleConnections()
	queryMetrics(ph, open, capacity)
	ph.attempted += len(s.daemons)
	ph.e2e["heap_live_mb"] = heapLiveMB()
	tr.end()
	if ph.out.batches, err = fetchBatches(s.url, s.c.checks); err != nil {
		return nil, err
	}

	if tr != nil {
		qafter := obsSnapshot()
		mergeLayers(ph, hooks, ob, after)
		// rrrd runs without a WAL here; the no-op log only marks records.
		ph.layers["wal.append_s"], ph.layers["wal.sync_s"] = 0, 0
		runtimeLayers(ph, m0, m1, len(s.daemons)*s.rec.records())
		serverLayers(ph, tr, s.handlers, ob, qafter)
		var lag []float64
		for ws, at := range markers {
			var closed time.Time
			for _, h := range hooks {
				if t := h.onCloseAt[ws]; t.After(closed) {
					closed = t
				}
			}
			lag = append(lag, ms(at.Sub(closed)))
		}
		if s.routed {
			ph.layers["merger.lag_p50_ms"] = quantile(lag, 0.50)
			ph.layers["merger.lag_p95_ms"] = quantile(lag, 0.95)
			ph.layers["merger.replica_dedup"] = ob.delta(after, "rrr_cluster_stream_late_dropped_total")
			ph.layers["merger.gaps"] = ob.delta(after, "rrr_cluster_stream_gaps_total")
			lr := linkRouter(tr, func(req int64) map[string]bool {
				if req < 0 {
					return nil
				}
				return s.c.pool.keys[int(req%(1<<32))%len(s.c.pool.keys)]
			})
			ph.layers["router.stale_p50_ms"] = quantile(lr.routerLat, 0.50)
			ph.layers["router.stale_p99_ms"] = quantile(lr.routerLat, 0.99)
			ph.layers["router.self_s"] = lr.routerSelf.Seconds()
			ph.layers["router.subrequests"] = float64(lr.subrequests)
			ph.layers["router.subrequest_p50_ms"] = quantile(lr.subLat, 0.50)
			if lr.subrequests > 0 {
				ph.layers["router.unlinked_frac"] = float64(lr.unlinked) / float64(lr.subrequests)
			}
			ph.layers["router.failovers"] = ob.delta(qafter, "rrr_router_failovers_total")
			ph.layers["router.shed"] = ob.delta(qafter, "rrr_router_shed_total")
		} else {
			ph.layers["server.stream_lag_p50_ms"] = quantile(lag, 0.50)
		}
	}
	return ph, nil
}
