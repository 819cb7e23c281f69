package main

import (
	"testing"

	"gfs/internal/experiments"
	"gfs/internal/sim"
)

// At seed 0 each workload must reproduce its figure runner's headline at
// the same configuration bit for bit, and its pinned seed-0 result.
func TestSeedZeroMatchesRunners(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload and its figure runner")
	}
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	run := func(t *testing.T, name string) simResult {
		w, _ := workloadByName(name)
		r := runIteration(w, 0, false, false)
		if len(r.Problems) > 0 {
			t.Fatalf("%s: %v", name, r.Problems)
		}
		if err := checkSim(pins, name, 0, r.Sim); err != nil {
			t.Error(err)
		}
		return r.Sim
	}

	t.Run("fig11-mpiio", func(t *testing.T) {
		got := run(t, "fig11-mpiio")
		h := experiments.RunProductionScaling(fig11Config()).Headline
		if h["max read MB/s"] != got.Metrics["sim_read_MBps"] || h["max write MB/s"] != got.Metrics["sim_write_MBps"] {
			t.Errorf("runner read %v write %v MB/s, benchmark read %v write %v",
				h["max read MB/s"], h["max write MB/s"], got.Metrics["sim_read_MBps"], got.Metrics["sim_write_MBps"])
		}
	})
	t.Run("wan-read", func(t *testing.T) {
		got := run(t, "wan-read")
		h := experiments.RunANL(wanConfig()).Headline
		rate := float64(got.BytesRead) / sim.Time(got.ElapsedNs).Seconds() // RunANL's arithmetic
		if h["aggregate GB/s"] != rate/1e9 || got.Metrics["sim_read_MBps"] != rate/1e6 {
			t.Errorf("runner %v GB/s, benchmark %v MB/s", h["aggregate GB/s"], got.Metrics["sim_read_MBps"])
		}
	})
	t.Run("metastorm", func(t *testing.T) {
		got := run(t, "metastorm")
		h := experiments.RunMetastorm(stormConfig()).Headline
		if h["ops/s @4 shards"] != got.Metrics["sim_meta_ops_per_s"] {
			t.Errorf("runner %v ops/s, benchmark %v", h["ops/s @4 shards"], got.Metrics["sim_meta_ops_per_s"])
		}
	})
}
