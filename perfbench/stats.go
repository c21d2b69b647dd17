package main

import (
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"rrr/internal/obs"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is sorted in place. Empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// obsPhase reads obs.Default as a delta over one measured phase. The
// registry is process-global and every monitor, server and router of the
// run adds into it, so only differences between two snapshots taken
// around a phase belong to that phase.
type obsPhase struct{ before map[string]float64 }

func startObs() obsPhase { return obsPhase{before: obsSnapshot()} }

func obsSnapshot() map[string]float64 { return obs.Default.Snapshot() }

// delta sums a family's series (all label sets, or the unlabeled series)
// over the phase. Histogram families are read via name_sum / name_count.
func (p obsPhase) delta(after map[string]float64, family string) float64 {
	var d float64
	for k, v := range after {
		if k == family || strings.HasPrefix(k, family+"{") {
			d += v - p.before[k]
		}
	}
	return d
}

// heapLiveMB is HeapAlloc right after a forced collection.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// settledHeapMB collects until the live heap stops shrinking: objects a
// finalizer still reaches (closed connections and what they point to)
// survive one collection after their owner is dropped.
func settledHeapMB() float64 {
	h := heapLiveMB()
	for i := 0; i < 5; i++ {
		time.Sleep(10 * time.Millisecond)
		n := heapLiveMB()
		if n >= h*0.999 {
			return n
		}
		h = n
	}
	return h
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}
