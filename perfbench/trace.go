package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rrr"
	"rrr/internal/bgp"
)

// span is one traced interval. Times are nanoseconds since the tracer's
// base; Parent indexes the tracer's span list (-1 for a root) and Req is
// the request ID shared by a query's spans on every layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req,omitempty"`
	Worker int    `json:"worker,omitempty"`
	// key is the first corpus key of a sub-request, used to link it to
	// the router request it was split from.
	key string
}

// tracer holds one traced phase's spans in memory; write dumps them at
// the end of the run. Every hook below is the benchmark's own wrapper
// around a layer's public function or callback, so the program under
// test is unchanged.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
	// until, once set, ends the traced phase: later spans (the output
	// checks' requests) are not recorded.
	until int64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.until > 0 && s.Start > t.until {
		return -1
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// end stops recording; it is a no-op on a nil tracer.
func (t *tracer) end() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.until = int64(time.Since(t.base))
	t.mu.Unlock()
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hookKind names the merge-goroutine callbacks a pipeline makes, in the
// order RunPipeline makes them per record: log append, (window closes:
// sink*, log window sync, tap close, on-close), tap record, then the
// monitor observes the record before the loop fetches the next one.
type hookKind int

const (
	// hookStart stands for the pipeline's start, so the wait for its
	// first records is attributed like any later wait.
	hookStart hookKind = iota
	hookAppend
	hookSink
	hookSync
	hookTapClose
	hookOnClose
	hookTapRecord
)

// mergeHooks wraps one pipeline's RecordLog, RecordTap, Sink and
// OnWindowClose. All of them run on the pipeline's merge goroutine, so
// the fields need no lock until the pipeline has returned.
//
// Engine time is attributed from the gaps between consecutive hooks:
//   - tap-record (or the pipeline's start) → next append: the monitor
//     observing the record, plus the loop waiting for the next record. The
//     wait is the program's own rrr_pipeline_merge_stall_seconds,
//     subtracted per phase, so core.observe_s = these gaps − pipeline.wait_s.
//   - append (or a previous window's on-close) → first sink or log sync:
//     Monitor.CloseWindow, i.e. core.close_s, one sample per window.
//   - the feeds' EOF closes the last windows right after a tap-record
//     hook. That gap is split at the later feed's EOF (feeds, the sources'
//     readTimer): before it the loop observed the last record and then
//     waited for EOF, which the stall counter includes, so it is observe
//     time; after it is the close.
//   - every other gap is loop bookkeeping and is not attributed.
type mergeHooks struct {
	tr     *tracer
	worker int
	log    rrr.RecordLog
	tap    rrr.RecordTap
	sink   func(rrr.Signal)
	close  func(int64)
	// feeds times the pipeline's sources; wrap them in timed with it.
	feeds readTimer

	last    hookKind
	lastEnd time.Time

	observeGap time.Duration
	closeGap   []time.Duration
	appendDur  time.Duration
	syncDur    time.Duration
	tapDur     time.Duration
	sinkDur    time.Duration
	onCloseDur time.Duration
	signals    int
	// onCloseAt is when each window's on-close hook ran, by absolute
	// window start.
	onCloseAt map[int64]time.Time

	winSpan int
}

func newMergeHooks(tr *tracer, worker int, log rrr.RecordLog, tap rrr.RecordTap, sink func(rrr.Signal), onClose func(int64)) *mergeHooks {
	h := &mergeHooks{tr: tr, worker: worker, log: log, tap: tap, sink: sink, close: onClose,
		onCloseAt: make(map[int64]time.Time), winSpan: -1, last: hookStart, lastEnd: time.Now()}
	h.feeds.base = tr.base
	return h
}

// enter attributes the gap since the previous hook and returns the
// hook's start time.
func (h *mergeHooks) enter(k hookKind) time.Time {
	now := time.Now()
	from := h.lastEnd
	closing := k == hookSink || k == hookSync
	switch {
	case (h.last == hookTapRecord || h.last == hookStart) && k == hookAppend:
		h.observeGap += now.Sub(from)
	case closing && (h.last == hookAppend || h.last == hookOnClose || h.last == hookTapRecord):
		if eof := h.feeds.eofAt(); h.last == hookTapRecord && eof.After(from) && eof.Before(now) {
			h.observeGap += eof.Sub(from)
			from = eof
		}
		gap := now.Sub(from)
		h.closeGap = append(h.closeGap, gap)
		at := int64(now.Sub(h.tr.base))
		h.winSpan = h.tr.add(span{Name: "pipeline.window", Start: at - int64(gap), Parent: -1, Worker: h.worker})
		h.tr.add(span{Name: "core.close", Start: at - int64(gap), End: at, Parent: h.winSpan, Worker: h.worker})
	}
	return now
}

func (h *mergeHooks) leave(k hookKind, start time.Time, name string) time.Duration {
	end := time.Now()
	h.last, h.lastEnd = k, end
	if name != "" && h.winSpan >= 0 {
		h.tr.add(span{Name: name, Start: int64(start.Sub(h.tr.base)), End: int64(end.Sub(h.tr.base)), Parent: h.winSpan, Worker: h.worker})
	}
	return end.Sub(start)
}

func (h *mergeHooks) AppendUpdate(u bgp.Update) error {
	s := h.enter(hookAppend)
	err := h.log.AppendUpdate(u)
	h.appendDur += h.leave(hookAppend, s, "")
	return err
}

func (h *mergeHooks) AppendTrace(t *rrr.Traceroute) error {
	s := h.enter(hookAppend)
	err := h.log.AppendTrace(t)
	h.appendDur += h.leave(hookAppend, s, "")
	return err
}

func (h *mergeHooks) WindowClosed(ws int64) error {
	s := h.enter(hookSync)
	err := h.log.WindowClosed(ws)
	h.syncDur += h.leave(hookSync, s, "wal.sync")
	return err
}

func (h *mergeHooks) TapUpdate(u bgp.Update) {
	s := h.enter(hookTapRecord)
	h.tap.TapUpdate(u)
	h.tapDur += h.leave(hookTapRecord, s, "")
}

func (h *mergeHooks) TapTrace(t *rrr.Traceroute) {
	s := h.enter(hookTapRecord)
	h.tap.TapTrace(t)
	h.tapDur += h.leave(hookTapRecord, s, "")
}

func (h *mergeHooks) TapWindowClose(ws int64) {
	s := h.enter(hookTapClose)
	h.tap.TapWindowClose(ws)
	h.tapDur += h.leave(hookTapClose, s, "events.tap")
}

func (h *mergeHooks) Sink(sig rrr.Signal) {
	s := h.enter(hookSink)
	h.sink(sig)
	h.signals++
	h.sinkDur += h.leave(hookSink, s, "")
}

func (h *mergeHooks) OnWindowClose(ws int64) {
	s := h.enter(hookOnClose)
	h.onCloseAt[ws] = s
	h.close(ws)
	h.onCloseDur += h.leave(hookOnClose, s, "server.publish")
	if h.winSpan >= 0 {
		h.tr.mu.Lock()
		h.tr.spans[h.winSpan].End = h.tr.now()
		h.tr.mu.Unlock()
		h.winSpan = -1
	}
}

// nopLog is the RecordLog a traced run installs where the daemon has no
// WAL, so every record gets the append hook the gap attribution keys on.
type nopLog struct{}

func (nopLog) AppendUpdate(bgp.Update) error     { return nil }
func (nopLog) AppendTrace(*rrr.Traceroute) error { return nil }
func (nopLog) WindowClosed(int64) error          { return nil }

// readTimer measures the Read calls of a pipeline's sources, which run
// on the pipeline's per-feed reader goroutines: time spent in Read,
// records read, and when the later feed returned EOF.
type readTimer struct {
	base    time.Time
	busy    atomic.Int64
	records atomic.Int64
	eof     atomic.Int64 // ns since base; 0 until a feed ends
}

// eofAt is when the later feed ended, or the zero time before both did.
func (t *readTimer) eofAt() time.Time {
	ns := t.eof.Load()
	if ns == 0 {
		return time.Time{}
	}
	return t.base.Add(time.Duration(ns))
}

// timed wraps a source's Read for a readTimer.
type timed[T any] struct {
	src source[T]
	t   *readTimer
}

func (s timed[T]) Read() (T, error) {
	start := time.Now()
	rec, err := s.src.Read()
	end := time.Now()
	s.t.busy.Add(int64(end.Sub(start)))
	switch err {
	case nil:
		s.t.records.Add(1)
	case io.EOF:
		at := int64(end.Sub(s.t.base))
		for prev := s.t.eof.Load(); at > prev && !s.t.eof.CompareAndSwap(prev, at); prev = s.t.eof.Load() {
		}
	}
	return rec, err
}

// reqHeader carries the load generator's request ID to the first layer
// it reaches (worker or router); the router does not forward it, so
// worker sub-requests are linked to router requests by containment.
const reqHeader = "X-Perfbench-Request"

// tracedHandler records one span per POST /v1/stale the wrapped handler
// serves, with its response size and status.
type tracedHandler struct {
	tr     *tracer
	name   string
	worker int
	next   http.Handler

	mu       sync.Mutex
	bytes    int64
	verdicts int64
}

type countingWriter struct {
	http.ResponseWriter
	n      int64
	status int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || r.URL.Path != "/v1/stale" {
		h.next.ServeHTTP(w, r)
		return
	}
	var key string
	var nkeys int64
	// The body is read ahead (the handler then reads the copy) for its
	// first key, which links a worker sub-request to its router request,
	// and its key count, for bytes per verdict.
	body, err := io.ReadAll(r.Body)
	if err == nil {
		key = firstKey(body)
		nkeys = int64(bytes.Count(body, []byte(`","`)) + 1)
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
	cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
	start := h.tr.now()
	h.next.ServeHTTP(cw, r)
	end := h.tr.now()
	h.tr.add(span{Name: h.name, Start: start, End: end, Parent: -1, Req: req, Worker: h.worker, key: key})
	if cw.status == http.StatusOK {
		h.mu.Lock()
		h.bytes += cw.n
		h.verdicts += nkeys
		h.mu.Unlock()
	}
}

// firstKey extracts the first key of a {"keys":["a-b",...]} body.
func firstKey(body []byte) string {
	i := bytes.Index(body, []byte(`"keys":["`))
	if i < 0 {
		return ""
	}
	rest := body[i+len(`"keys":["`):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

// linkResult is the outcome of linking worker sub-request spans to the
// router requests they were split from.
type linkResult struct {
	routerSelf  time.Duration
	subrequests int
	unlinked    int
	subLat      []float64
	routerLat   []float64
}

// linkRouter links each worker span to the router span whose interval
// contains it and whose request carried the worker span's first key
// (keysOf maps a request ID to its key set), sets the worker span's
// parent and request ID, and computes the router's self time: each
// router span's duration minus the union of its linked children.
func linkRouter(t *tracer, keysOf func(req int64) map[string]bool) linkResult {
	t.mu.Lock()
	defer t.mu.Unlock()
	var routers, workers []int
	for i, s := range t.spans {
		switch s.Name {
		case "router.stale":
			routers = append(routers, i)
		case "server.stale":
			workers = append(workers, i)
		}
	}
	byStart := func(ix []int) {
		sort.Slice(ix, func(a, b int) bool { return t.spans[ix[a]].Start < t.spans[ix[b]].Start })
	}
	byStart(routers)
	byStart(workers)
	children := make(map[int][]int)
	var res linkResult
	// Sweep both lists by start time, keeping the router spans still open
	// at the current worker span's start; the load generator's few
	// connections keep that set small.
	var open []int
	next := 0
	for _, wi := range workers {
		ws := &t.spans[wi]
		res.subrequests++
		res.subLat = append(res.subLat, float64(ws.End-ws.Start)/1e6)
		for ; next < len(routers) && t.spans[routers[next]].Start <= ws.Start; next++ {
			open = append(open, routers[next])
		}
		live := open[:0]
		for _, ri := range open {
			if t.spans[ri].End >= ws.Start {
				live = append(live, ri)
			}
		}
		open = live
		match := -1
		for _, ri := range open {
			rs := t.spans[ri]
			if rs.End < ws.End || !keysOf(rs.Req)[ws.key] {
				continue
			}
			if match >= 0 {
				match = -2 // ambiguous
				break
			}
			match = ri
		}
		if match < 0 {
			res.unlinked++
			continue
		}
		ws.Parent = match
		ws.Req = t.spans[match].Req
		children[match] = append(children[match], wi)
	}
	for _, ri := range routers {
		rs := t.spans[ri]
		res.routerLat = append(res.routerLat, float64(rs.End-rs.Start)/1e6)
		kids := children[ri]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, curS, curE := int64(0), int64(-1), int64(-1)
		for _, k := range kids {
			s, e := t.spans[k].Start, t.spans[k].End
			if s > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = s, e
			} else if e > curE {
				curE = e
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		res.routerSelf += time.Duration(rs.End - rs.Start - covered)
	}
	return res
}

// spanDurations returns the durations in ms of every span with the name.
func (t *tracer) spanDurations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}
