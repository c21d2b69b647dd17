package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden.json for seeds 0 to goldenSeeds-1")

// goldenSeeds is how many seeds golden.json covers.
const goldenSeeds = 100

// goldenFor runs the serial reference for one seed's paper-scale feed,
// with the check batches a run of that seed posts.
func goldenFor(t *testing.T, seed int64) goldenEntry {
	t.Helper()
	cfg := defaultConfig()
	cfg.seed = seed
	c, err := newRunCtx(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := record(c.sc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := prime(rec, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.initQueries(p.mon.Tracked())
	ref, err := runReference(rec, c.checks)
	if err != nil {
		t.Fatal(err)
	}
	return goldenOf(rec, ref)
}

// TestGolden checks the first recorded seed's reference against
// golden.json, or with -update-golden rewrites the file.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a paper-scale reference daemon")
	}
	if *updateGolden {
		all := make(map[string]goldenEntry)
		for seed := int64(0); seed < goldenSeeds; seed++ {
			all[strconv.FormatInt(seed, 10)] = goldenFor(t, seed)
		}
		data, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	all, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := all["0"]; !ok {
		t.Fatal("golden.json has no entry for seed 0")
	}
	bad, err := checkGolden(0, goldenFor(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bad {
		t.Error(b)
	}
}

func TestScheduleDueTimes(t *testing.T) {
	// Window 0 starts at 900: the recording's first record sets the origin.
	updates := []int64{1000, 1900, 4600}            // windows 0, 1, 4 (relative)
	traces := []int64{1350, 2250, 3150, 4050, 4950} // windows 0..4
	s := newSchedule(900, 10*time.Millisecond, updates, traces)
	if s.first != 1 || s.windows != 5 {
		t.Fatalf("schedule spans first=%d windows=%d, want 1 and 5", s.first, s.windows)
	}
	if got := s.due(s.window(2250)); got != 10*time.Millisecond {
		t.Errorf("due(2250) = %v, want 10ms", got)
	}
	if got := s.due(s.windows); got != 50*time.Millisecond {
		t.Errorf("EOF due = %v, want 50ms", got)
	}
	if got, want := s.boundaries(updates), []int{1, 2, 2, 2, 3}; !equalInts(got, want) {
		t.Errorf("update boundaries = %v, want %v", got, want)
	}

	want := []time.Duration{
		10 * time.Millisecond, // both feeds have window-1 records
		40 * time.Millisecond, // the update feed lags: its next record is in window 4
		40 * time.Millisecond,
		40 * time.Millisecond,
		50 * time.Millisecond, // the last window closes at EOF
	}
	for w, d := range want {
		if got := s.boundaryDue(w, updates, traces); got != d {
			t.Errorf("boundaryDue(%d) = %v, want %v", w, got, d)
		}
	}

	// Freshness counts from the boundary, so the window held back by the
	// lagging update feed is not charged for the lag.
	start := time.Unix(1000, 0)
	markers := make(map[int64]time.Time)
	for w, d := range want {
		markers[s.windowStart(w)] = start.Add(d + time.Duration(w+1)*time.Millisecond)
	}
	fresh, err := freshness(s, start, markers, updates, traces)
	if err != nil {
		t.Fatal(err)
	}
	for w, f := range fresh {
		if f != float64(w+1) {
			t.Errorf("freshness(window %d) = %vms, want %dms", w, f, w+1)
		}
	}
	delete(markers, s.windowStart(2))
	if _, err := freshness(s, start, markers, updates, traces); err == nil {
		t.Error("freshness accepted a missing window marker")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.75); got != 4 {
		t.Errorf("p75 = %v, want 4", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

// TestSmoke runs every workload at tiny scale, untraced and traced, and
// checks that the outputs matched the reference daemon and that every
// metric BENCHMARK.json names is reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	spec := readSpec(t)
	for _, w := range []string{"ingest", "live", "routed"} {
		for _, traced := range []bool{false, true} {
			cfg := defaultConfig()
			cfg.workload, cfg.seed, cfg.seconds, cfg.trace = w, 3, 2, traced
			cfg.scale, cfg.outdir, cfg.setups = "tiny", t.TempDir(), 2
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v",
					w, traced, res.Correct, res.Attempted, res.Failed, res.problems)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			sort.Strings(want)
			if !equalStrings(got, want) {
				t.Errorf("%s traced=%v: metrics %v, want %v", w, traced, got, want)
			}
			for name, m := range res.Metrics {
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
				}
			}
		}
	}
}

type spec struct {
	EndToEnd []string
	PerLayer []string
}

// readSpec reads the metric names from the repository's BENCHMARK.json,
// so the program and the benchmark definition cannot drift apart.
func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	units := make(map[string]string)
	for _, m := range endToEnd {
		units[m.name] = m.unit
	}
	for _, m := range perLayer {
		units[m.name] = m.unit
	}
	var s spec
	for _, m := range raw.EndToEnd {
		s.EndToEnd = append(s.EndToEnd, m.Name)
		if units[m.Name] != m.Unit {
			t.Errorf("BENCHMARK.json: %s unit %q, program reports %q", m.Name, m.Unit, units[m.Name])
		}
	}
	for _, m := range raw.PerLayer {
		s.PerLayer = append(s.PerLayer, m.Name)
		if units[m.Name] != m.Unit {
			t.Errorf("BENCHMARK.json: %s unit %q, program reports %q", m.Name, m.Unit, units[m.Name])
		}
	}
	return s
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
