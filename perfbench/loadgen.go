package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"rrr"
	"rrr/internal/server"
)

// queryPool holds pre-rendered POST /v1/stale bodies, so the generator
// spends no time encoding while it is on the clock.
type queryPool struct {
	bodies [][]byte
	keys   []map[string]bool
}

func newQueryPool(keys []rrr.Key, n, batch int, rng *rand.Rand) queryPool {
	p := queryPool{bodies: make([][]byte, n), keys: make([]map[string]bool, n)}
	for i := range p.bodies {
		ks := make([]string, batch)
		set := make(map[string]bool, batch)
		for j := range ks {
			ks[j] = server.FormatKey(keys[rng.Intn(len(keys))])
			set[ks[j]] = true
		}
		body, _ := json.Marshal(map[string][]string{"keys": ks}) // []string always encodes
		p.bodies[i] = body
		p.keys[i] = set
	}
	return p
}

// loadResult is one load phase as the generator saw it. Latencies are in
// ms; a failed or refused request is +Inf, so it misses any limit.
type loadResult struct {
	lat []float64
	// slices holds the open loop's latencies by p99Slice of due time.
	slices map[int][]float64
	// late is, for each open-loop request sent on an idle connection,
	// how long after its due time the generator sent it.
	late      []float64
	attempted int
	failed    int
	ok        int
	// rate is the closed loop's completed requests per second: the median
	// over one-second slices, so a single GC or scheduling stall moves it
	// less than it moves the mean.
	rate float64
}

// add pools another open-loop phase's requests into r. The slices are
// dropped: their due times are relative to each phase's own start.
func (r *loadResult) add(o loadResult) {
	r.lat = append(r.lat, o.lat...)
	r.late = append(r.late, o.late...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.ok += o.ok
	r.slices = nil
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// post sends one batch and drains the response; the request ID rides in
// reqHeader for the traced run's span linking.
func post(client *http.Client, url string, body []byte, req int64) ([]byte, error) {
	hr, err := http.NewRequest(http.MethodPost, url+"/v1/stale", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(reqHeader, strconv.FormatInt(req, 10))
	resp, err := client.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /v1/stale: status %d", resp.StatusCode)
	}
	return data, nil
}

// openLoop sends request k at start + k/rate, regardless of how earlier
// requests fared, over conns connections (request k goes to connection
// k mod conns), until stop closes. A request that had to wait because its
// connection was still busy with an earlier answer is timed from its due
// time, so a stall also charges the requests queued behind it. A request
// whose connection was idle when it fell due is timed from its send: the
// gap between due time and send is then the generator's own timer
// lateness, reported as late rather than charged to the system.
func openLoop(client *http.Client, url string, pool queryPool, rate float64, conns int, start time.Time, stop <-chan struct{}, reqBase int64, tr *tracer) loadResult {
	var mu sync.Mutex
	res := loadResult{slices: make(map[int][]float64)}
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var prevDone time.Time
			for k := c; ; k += conns {
				due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					select {
					case <-stop:
						return
					case <-time.After(d):
					}
				}
				select {
				case <-stop:
					return
				default:
				}
				sent := time.Now()
				_, err := post(client, url, pool.bodies[k%len(pool.bodies)], reqBase+int64(k))
				done := time.Now()
				origin, late := due, -1.0
				if !prevDone.After(due) {
					origin, late = sent, ms(sent.Sub(due))
				}
				prevDone = done
				if tr != nil {
					tr.add(span{Name: "loadgen.request", Start: int64(origin.Sub(tr.base)), End: int64(done.Sub(tr.base)), Parent: -1, Req: reqBase + int64(k)})
				}
				lat := ms(done.Sub(origin))
				if err != nil {
					lat = math.Inf(1)
				}
				mu.Lock()
				res.attempted++
				if err != nil {
					res.failed++
				} else {
					res.ok++
				}
				res.lat = append(res.lat, lat)
				i := int(due.Sub(start) / p99Slice)
				res.slices[i] = append(res.slices[i], lat)
				if late >= 0 {
					res.late = append(res.late, late)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return res
}

// p99Slice is the stretch of the open-loop schedule over which one p99 is
// taken; at queryRate a full slice holds 1,200 requests, so its p99 rests
// on twelve samples beyond it.
const p99Slice = 4 * time.Second

// p99 is the median over full slices of each slice's p99, so one stall
// of the whole machine moves it less than it moves the p99 of the pooled
// samples. Without a full slice it is the pooled p99.
func (r loadResult) p99() float64 {
	var p99s []float64
	for _, xs := range r.slices {
		if float64(len(xs)) >= 0.99*queryRate*p99Slice.Seconds() {
			p99s = append(p99s, quantile(xs, 0.99))
		}
	}
	if len(p99s) == 0 {
		return quantile(r.lat, 0.99)
	}
	return median(p99s)
}

// closedLoop keeps conns requests outstanding, each connection sending
// its next batch as soon as the previous answer arrives, for d.
func closedLoop(client *http.Client, url string, pool queryPool, conns int, d time.Duration, reqBase int64, tr *tracer) loadResult {
	var mu sync.Mutex
	var res loadResult
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	slices := int(d / time.Second)
	if slices < 1 {
		slices = 1
	}
	done := make([]int, slices)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; time.Now().Before(deadline); k += conns {
				t0 := time.Now()
				_, err := post(client, url, pool.bodies[k%len(pool.bodies)], reqBase+int64(k))
				t1 := time.Now()
				if tr != nil {
					tr.add(span{Name: "loadgen.request", Start: int64(t0.Sub(tr.base)), End: int64(t1.Sub(tr.base)), Parent: -1, Req: reqBase + int64(k)})
				}
				lat := ms(t1.Sub(t0))
				if err != nil {
					lat = math.Inf(1)
				}
				mu.Lock()
				res.attempted++
				if err != nil {
					res.failed++
				} else {
					res.ok++
					if i := int(t1.Sub(start) * time.Duration(slices) / d); i < slices {
						done[i]++
					}
				}
				res.lat = append(res.lat, lat)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	rates := make([]float64, slices)
	for i, n := range done {
		rates[i] = float64(n) / (d.Seconds() / float64(slices))
	}
	res.rate = median(rates)
	return res
}

// subscriber tails GET /v1/signals, keeping the event lines (comments
// such as the preamble and keepalives, and the blank lines ending them,
// are wall-clock dependent and dropped) and the arrival time of every
// window marker.
type subscriber struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu      sync.Mutex
	text    strings.Builder
	markers map[int64]time.Time
	last    chan struct{}
	lastWS  int64
}

// subscribe attaches to url's stream; lastWS is the final window whose
// marker ends the capture.
func subscribe(url string, lastWS int64) (*subscriber, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/signals", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET /v1/signals: status %d", resp.StatusCode)
	}
	s := &subscriber{cancel: cancel, done: make(chan struct{}), markers: make(map[int64]time.Time),
		last: make(chan struct{}), lastWS: lastWS}
	go s.read(resp.Body)
	return s, nil
}

func (s *subscriber) read(body io.ReadCloser) {
	defer close(s.done)
	defer body.Close()
	br := bufio.NewReaderSize(body, 64<<10)
	window := false
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			// EOF or the cancellation finish makes; finish reports a
			// stream that ended before its final marker.
			return
		}
		if strings.HasPrefix(line, ":") || line == "\n" {
			continue
		}
		now := time.Now()
		s.mu.Lock()
		s.text.WriteString(line)
		if window && strings.HasPrefix(line, "data: ") {
			var m struct {
				WindowStart int64 `json:"windowStart"`
			}
			if json.Unmarshal([]byte(line[len("data: "):]), &m) == nil {
				if _, dup := s.markers[m.WindowStart]; !dup {
					s.markers[m.WindowStart] = now
					if m.WindowStart == s.lastWS {
						close(s.last)
					}
				}
			}
		}
		s.mu.Unlock()
		window = line == "event: window\n"
	}
}

// finish waits (up to timeout) for the final window's marker, then
// detaches and returns the captured frames.
func (s *subscriber) finish(timeout time.Duration) (string, map[int64]time.Time, error) {
	var err error
	select {
	case <-s.last:
	case <-time.After(timeout):
		err = fmt.Errorf("signal stream: final window marker not seen within %v", timeout)
	}
	s.cancel()
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.text.String(), s.markers, err
}
