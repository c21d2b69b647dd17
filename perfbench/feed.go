package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"rrr"
	"rrr/internal/experiments"
	"rrr/internal/wal"
)

// recording is the simulated feed captured once during set-up. After
// record returns nothing steps the simulator again, so the engine's
// mapper reads a frozen topology and no timed phase pays for (or races
// with) simulation.
type recording struct {
	sc      experiments.Scale
	env     *experiments.DaemonEnv
	updates []rrr.Update
	traces  []*rrr.Traceroute
	// digest is an FNV-64a hash of every record's WAL payload encoding, in
	// feed order; two set-ups from one seed must agree on it.
	digest uint64
	// sharedGeo is env.Geo behind a lock, for engines running at once.
	sharedGeo *lockedGeo
}

func record(sc experiments.Scale) (*recording, error) {
	env := experiments.NewDaemonEnv(sc, 0)
	r := &recording{sc: sc, env: env, sharedGeo: &lockedGeo{g: env.Geo}}
	h := fnv.New64a()
	for {
		u, err := env.Updates.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("record updates: %w", err)
		}
		p, err := wal.EncodeUpdatePayload(u)
		if err != nil {
			return nil, fmt.Errorf("encode update: %w", err)
		}
		h.Write(p)
		r.updates = append(r.updates, u)
	}
	for {
		t, err := env.Traces.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("record traces: %w", err)
		}
		p, err := wal.EncodeTracePayload(t)
		if err != nil {
			return nil, fmt.Errorf("encode trace: %w", err)
		}
		h.Write(p)
		r.traces = append(r.traces, t)
	}
	if len(r.updates) == 0 || len(r.traces) == 0 {
		return nil, fmt.Errorf("record: empty feed (%d updates, %d traces)", len(r.updates), len(r.traces))
	}
	r.digest = h.Sum64()
	return r, nil
}

func (r *recording) records() int { return len(r.updates) + len(r.traces) }

func updateTimes(us []rrr.Update) []int64 {
	out := make([]int64, len(us))
	for i := range us {
		out[i] = us[i].Time
	}
	return out
}

func traceTimes(ts []*rrr.Traceroute) []int64 {
	out := make([]int64, len(ts))
	for i := range ts {
		out[i] = ts[i].Time
	}
	return out
}

// schedule is the live release plan: every record of the recording's
// k-th window (counted from its first window) is due k*pace after the
// release start, and each feed's EOF is due once its last window has had
// a full pace.
type schedule struct {
	windowSec int64
	first     int64 // absolute index of the recording's first window
	windows   int   // windows spanned by the recording
	pace      time.Duration
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}

func newSchedule(windowSec int64, pace time.Duration, feeds ...[]int64) schedule {
	lo, hi := int64(0), int64(0)
	seen := false
	for _, ts := range feeds {
		if len(ts) == 0 {
			continue
		}
		a, b := floorDiv(ts[0], windowSec), floorDiv(ts[len(ts)-1], windowSec)
		if !seen || a < lo {
			lo = a
		}
		if !seen || b > hi {
			hi = b
		}
		seen = true
	}
	return schedule{windowSec: windowSec, first: lo, windows: int(hi-lo) + 1, pace: pace}
}

// window is a timestamp's window, relative to the first.
func (s schedule) window(t int64) int { return int(floorDiv(t, s.windowSec) - s.first) }

// windowStart is the absolute start time of relative window w.
func (s schedule) windowStart(w int) int64 { return (s.first + int64(w)) * s.windowSec }

// due is the release offset of relative window w; w == windows is EOF.
func (s schedule) due(w int) time.Duration { return time.Duration(w) * s.pace }

// boundaries returns, for each relative window W and one feed, the
// position of the feed's first record at or past W's end (len(ts) when
// only EOF follows). The pipeline cannot close W before it holds that
// record (or EOF) from both feeds.
func (s schedule) boundaries(ts []int64) []int {
	out := make([]int, s.windows)
	for w := range out {
		end := s.windowStart(w + 1)
		out[w] = sort.Search(len(ts), func(i int) bool { return ts[i] >= end })
	}
	return out
}

// boundaryDue is the release offset at which everything needed to close
// relative window W has been released: the later of the two feeds' first
// records at or past W's end. A feed that skips windows (the sparse
// update stream) pushes the boundary out to its next record.
func (s schedule) boundaryDue(w int, feeds ...[]int64) time.Duration {
	var worst time.Duration
	end := s.windowStart(w + 1)
	for _, ts := range feeds {
		i := sort.Search(len(ts), func(i int) bool { return ts[i] >= end })
		d := s.due(s.windows)
		if i < len(ts) {
			d = s.due(s.window(ts[i]))
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// pacedFeed releases one feed of the recording on the schedule: Read
// blocks until the next record's window is due. It stands in for the
// in-process simulator sources rrrd uses, minus the simulation.
type pacedFeed struct {
	sched schedule
	start time.Time
	times []int64
	pos   int
}

func (p *pacedFeed) wait() bool {
	w := p.sched.windows
	if p.pos < len(p.times) {
		w = p.sched.window(p.times[p.pos])
	}
	if d := time.Until(p.start.Add(p.sched.due(w))); d > 0 {
		time.Sleep(d)
	}
	return p.pos < len(p.times)
}

// source is a feed of one record type: rrr.UpdateSource or
// rrr.TraceSource.
type source[T any] interface{ Read() (T, error) }

// paced releases the recorded records of one feed.
type paced[T any] struct {
	pacedFeed
	recs []T
}

func (p *paced[T]) Read() (T, error) {
	if !p.wait() {
		var zero T
		return zero, io.EOF
	}
	p.pos++
	return p.recs[p.pos-1], nil
}

func newPacedSources(r *recording, sched schedule, start time.Time) (*paced[rrr.Update], *paced[*rrr.Traceroute]) {
	return &paced[rrr.Update]{pacedFeed{sched: sched, start: start, times: updateTimes(r.updates)}, r.updates},
		&paced[*rrr.Traceroute]{pacedFeed{sched: sched, start: start, times: traceTimes(r.traces)}, r.traces}
}

// arrivals stamps the monotonic time at which each record (and finally
// EOF) left a source's Read, so freshness can be measured from arrival
// when the feed is not paced.
type arrivals struct {
	base time.Time
	at   []atomic.Int64 // ns since base; index len-1 is EOF
	n    int
}

func newArrivals(base time.Time, records int) *arrivals {
	return &arrivals{base: base, at: make([]atomic.Int64, records+1)}
}

// stamp records the current read position's arrival. Each arrivals value
// belongs to one reader goroutine, so n needs no lock.
func (a *arrivals) stamp() {
	if a.n < len(a.at) {
		a.at[a.n].Store(int64(time.Since(a.base)))
		a.n++
	}
}

func (a *arrivals) get(i int) time.Duration { return time.Duration(a.at[i].Load()) }

// stamped stamps each record's arrival as it leaves src's Read.
type stamped[T any] struct {
	src source[T]
	arr *arrivals
}

func (s stamped[T]) Read() (T, error) {
	rec, err := s.src.Read()
	if err == nil || err == io.EOF {
		s.arr.stamp()
	}
	return rec, err
}
