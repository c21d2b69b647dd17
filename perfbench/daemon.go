package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"sync"
	"time"

	"rrr"
	"rrr/internal/bgp"
	"rrr/internal/cluster"
	"rrr/internal/events"
	"rrr/internal/server"
)

// ringSize is the per-subscriber SSE buffer of every hub and the router.
// Feeds here release a window's records at once, so rrrd's default ring
// could shed frames under a burst and fail the stream check for reasons
// of scheduling alone; the in-process cluster uses the same depth.
const ringSize = 1 << 14

// primed is a monitor and event detector primed from the recording's
// table dump and tracking the recording's corpus (or, for a cluster
// worker, the pairs its partitions replicate), as rrrd does at start.
type primed struct {
	mon     *rrr.Monitor
	det     *events.Detector
	tracked int
}

// lockedGeo serializes the simulator's geolocator, which memoizes into a
// plain map. Only the routed workers share one concurrently (each rrrd
// worker process would own its copy); answers are unchanged because every
// engine makes the same call sequence against the frozen simulator.
type lockedGeo struct {
	mu sync.Mutex
	g  rrr.Geolocator
}

func (l *lockedGeo) LocateCity(ip uint32, when int64) (int, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.g.LocateCity(ip, when)
}

func prime(r *recording, ring *cluster.Ring, worker int) (*primed, error) {
	cfg := rrr.DefaultConfig()
	cfg.WindowSec = r.sc.WindowSec
	env := r.env
	geo := env.Geo
	if ring != nil {
		geo = r.sharedGeo
	}
	mon, err := rrr.NewMonitor(rrr.Options{
		Config:     cfg,
		Mapper:     env.Mapper,
		Aliases:    env.Aliases,
		Geo:        geo,
		Rel:        env.Rel,
		IXPMembers: env.IXPMembers,
	})
	if err != nil {
		return nil, err
	}
	det := events.NewDetector(events.Config{WindowSec: r.sc.WindowSec})
	for _, u := range env.Dump {
		mon.ObserveBGP(u)
		det.Prime(u)
	}
	p := &primed{mon: mon, det: det}
	for _, tr := range env.Corpus {
		if ring != nil && !ring.IsReplica(tr.Key(), worker) {
			continue
		}
		// AS-loop traces are rejected by design (Appendix A).
		if mon.Track(tr) == nil {
			p.tracked++
		}
	}
	return p, nil
}

// daemon is one serving rrrd: primed state behind server.New on a
// loopback listener.
type daemon struct {
	*primed
	srv    *server.Server
	health *rrr.PipelineHealth
	http   *http.Server
	url    string
	served chan struct{}
}

// startDaemon serves p. ident, when set, makes it cluster worker
// ident.ID; wrap, when set, wraps its handler (the traced run's hook).
func startDaemon(p *primed, ident *server.WorkerIdentity, wrap func(http.Handler) http.Handler) (*daemon, error) {
	health := rrr.NewPipelineHealth()
	srv := server.New(p.mon, server.Config{RingSize: ringSize, Health: health, Events: p.det, Worker: ident})
	p.det.SetSink(srv.PublishEvent)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	d := &daemon{primed: p, srv: srv, health: health, http: &http.Server{Handler: h},
		url: "http://" + lis.Addr().String(), served: make(chan struct{})}
	go func() {
		defer close(d.served)
		d.http.Serve(lis)
	}()
	return d, nil
}

// stop closes the listener and every open connection and waits for the
// serve loop to end.
func (d *daemon) stop() {
	d.http.Close()
	<-d.served
}

// pipelineConfig is rrrd's pipeline wiring for in-process sources.
func (d *daemon) pipelineConfig(us rrr.UpdateSource, ts rrr.TraceSource) rrr.PipelineConfig {
	return rrr.PipelineConfig{
		Updates:       us,
		Traces:        ts,
		Sink:          d.srv.Publish,
		Tap:           d.det,
		Retry:         rrr.RetryPolicy{MaxRetries: 5, Backoff: 500 * time.Millisecond, ContinueOnDeadFeed: true},
		DedupAdjacent: true,
		Health:        d.health,
		OnWindowClose: d.srv.PublishWindowClose,
	}
}

// routerFront is the cluster router served on a loopback listener.
type routerFront struct {
	rt     *cluster.Router
	http   *http.Server
	url    string
	served chan struct{}
}

func startRouter(workerURLs []string, wrap func(http.Handler) http.Handler) (*routerFront, error) {
	rt, err := cluster.NewRouter(cluster.Options{Workers: workerURLs, RingSize: ringSize, StreamBackoff: 20 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rt.Close()
		return nil, err
	}
	h := rt.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	f := &routerFront{rt: rt, http: &http.Server{Handler: h}, url: "http://" + lis.Addr().String(), served: make(chan struct{})}
	go func() {
		defer close(f.served)
		f.http.Serve(lis)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for !rt.StreamConnected() {
		if time.Now().After(deadline) {
			f.stop()
			return nil, errors.New("router: worker streams not connected after 10s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return f, nil
}

func (f *routerFront) stop() {
	f.http.Close()
	<-f.served
	f.rt.Close()
}

// digest accumulates an order-sensitive hash and a count of the text
// forms of signals or routing events.
type digest struct {
	n int
	h uint64
}

func (d *digest) add(s string) {
	f := fnv.New64a()
	f.Write([]byte(s))
	d.h = d.h*1099511628211 ^ f.Sum64()
	d.n++
}

func (d digest) String() string { return fmt.Sprintf("%d/%016x", d.n, d.h) }

// reference is a single daemon's outputs after the whole recording,
// ingested serially and unpaced: what every workload's outputs must
// equal.
type reference struct {
	signals digest
	events  digest
	stream  string
	batches [][]byte
}

func runReference(r *recording, checks [][]byte) (*reference, error) {
	p, err := prime(r, nil, 0)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(p, nil, nil)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	ref := &reference{}
	p.det.SetSink(func(ev events.Event) {
		ref.events.add(fmt.Sprint(ev))
		d.srv.PublishEvent(ev)
	})
	sub, err := subscribe(d.url, lastWindowStart(r))
	if err != nil {
		return nil, err
	}
	cfg := d.pipelineConfig(bgp.NewSliceSource(r.updates), rrr.NewTraceSliceSource(r.traces))
	cfg.Sink = func(s rrr.Signal) {
		ref.signals.add(s.String())
		d.srv.Publish(s)
	}
	if err := rrr.RunPipeline(context.Background(), p.mon, cfg); err != nil {
		return nil, fmt.Errorf("reference pipeline: %w", err)
	}
	ref.stream, _, err = sub.finish(30 * time.Second)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if ref.batches, err = fetchBatches(d.url, checks); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return ref, nil
}

// fetchBatches posts the output-check bodies to url and returns the
// response bodies.
func fetchBatches(url string, checks [][]byte) ([][]byte, error) {
	client := newClient(1)
	defer client.CloseIdleConnections()
	var out [][]byte
	for i, b := range checks {
		body, err := post(client, url, b, int64(-1-i))
		if err != nil {
			return nil, fmt.Errorf("check batch %d: %w", i, err)
		}
		out = append(out, body)
	}
	return out, nil
}

func lastWindowStart(r *recording) int64 {
	s := newSchedule(r.sc.WindowSec, 0, updateTimes(r.updates), traceTimes(r.traces))
	return s.windowStart(s.windows - 1)
}
