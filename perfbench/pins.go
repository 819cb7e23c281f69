package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
)

// pins.json holds, per workload, the volume every seed must move and
// the full simulated result of each pinned seed. Regenerate it only for
// a change that is meant to alter what the model simulates:
//
//	go run . -pin 32 > pins.new && mv pins.new pins.json
//
//go:embed pins.json
var pinsJSON []byte

type workloadPins struct {
	Volume volume               `json:"volume"`
	Seeds  map[string]simResult `json:"seeds"`
}

// volume is the work a timed phase does. The seed never changes it.
type volume struct {
	Calls        int64 `json:"calls"`
	BytesRead    int64 `json:"bytes_read"`
	BytesWritten int64 `json:"bytes_written"`
}

func volumeOf(r simResult) volume {
	return volume{Calls: r.Calls, BytesRead: r.BytesRead, BytesWritten: r.BytesWritten}
}

func loadPins() (map[string]workloadPins, error) {
	var p map[string]workloadPins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

// checkSim compares one timed phase's simulated results with the pins:
// the volume for every seed, and every value exactly for a pinned seed.
func checkSim(pins map[string]workloadPins, workload string, seed int64, got simResult) error {
	wp, ok := pins[workload]
	if !ok {
		return fmt.Errorf("no pins for workload %s", workload)
	}
	if v := volumeOf(got); v != wp.Volume {
		return fmt.Errorf("%s: volume %+v, pinned %+v", workload, v, wp.Volume)
	}
	want, ok := wp.Seeds[strconv.FormatInt(seed, 10)]
	if !ok {
		return nil
	}
	if d := diffSim(want, got); len(d) > 0 {
		return fmt.Errorf("%s seed %d differs from pins: %v", workload, seed, d)
	}
	return nil
}

// diffSim lists every field in which two simulated results differ.
func diffSim(want, got simResult) []string {
	var d []string
	if want.ElapsedNs != got.ElapsedNs {
		d = append(d, fmt.Sprintf("elapsed_ns %d != %d", got.ElapsedNs, want.ElapsedNs))
	}
	if volumeOf(want) != volumeOf(got) {
		d = append(d, fmt.Sprintf("volume %+v != %+v", volumeOf(got), volumeOf(want)))
	}
	keys := map[string]bool{}
	for k := range want.Metrics {
		keys[k] = true
	}
	for k := range got.Metrics {
		keys[k] = true
	}
	var names []string
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		w, wok := want.Metrics[k]
		g, gok := got.Metrics[k]
		if wok != gok || w != g {
			d = append(d, fmt.Sprintf("%s %v != %v", k, g, w))
		}
	}
	return d
}
