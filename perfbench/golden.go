package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
)

// goldenJSON holds, per seed, digests of the serial reference daemon's
// outputs for the paper-scale feed, recorded at the commit that defined
// the benchmark. The reference is built from the same engine, detector
// and server as the daemons it checks, so a change that alters outputs
// on both paths alike (fewer signals, a wrong cached verdict) passes the
// reference comparison; it fails here. A change meant to alter outputs
// regenerates the file:
//
//	go test -run TestGolden -update-golden
//
//go:embed golden.json
var goldenJSON []byte

// goldenEntry is one seed's digests.
type goldenEntry struct {
	Feed    string   `json:"feed"`    // the recording's digest
	Signals string   `json:"signals"` // count/hash
	Events  string   `json:"events"`  // count/hash
	Stream  string   `json:"stream"`  // bytes/hash of the SSE capture
	Batches []string `json:"batches"` // bytes/hash of each check batch
}

func hashText(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%d/%016x", len(b), h.Sum64())
}

func goldenOf(rec *recording, ref *reference) goldenEntry {
	g := goldenEntry{
		Feed:    fmt.Sprintf("%d/%016x", rec.records(), rec.digest),
		Signals: ref.signals.String(),
		Events:  ref.events.String(),
		Stream:  hashText([]byte(ref.stream)),
	}
	for _, b := range ref.batches {
		g.Batches = append(g.Batches, hashText(b))
	}
	return g
}

// loadGolden parses goldenJSON: seed → digests.
func loadGolden() (map[string]goldenEntry, error) {
	var m map[string]goldenEntry
	if err := json.Unmarshal(goldenJSON, &m); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return m, nil
}

// checkGolden lists every way the reference's outputs differ from the
// recorded digests for seed. Seeds without an entry are not checked.
func checkGolden(seed int64, got goldenEntry) ([]string, error) {
	all, err := loadGolden()
	if err != nil {
		return nil, err
	}
	want, ok := all[strconv.FormatInt(seed, 10)]
	if !ok {
		return nil, nil
	}
	var out []string
	diff := func(what, g, w string) {
		if g != w {
			out = append(out, fmt.Sprintf("%s %s, golden %s", what, g, w))
		}
	}
	diff("recorded feed", got.Feed, want.Feed)
	diff("reference signals", got.Signals, want.Signals)
	diff("reference routing events", got.Events, want.Events)
	diff("reference signal stream", got.Stream, want.Stream)
	if len(got.Batches) != len(want.Batches) {
		out = append(out, fmt.Sprintf("%d reference check batches, golden %d", len(got.Batches), len(want.Batches)))
	}
	for i := 0; i < len(got.Batches) && i < len(want.Batches); i++ {
		diff(fmt.Sprintf("reference check batch %d", i), got.Batches[i], want.Batches[i])
	}
	return out, nil
}
