package main

import (
	"bytes"
	"compress/gzip"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {19, 0}, {20, 5000}, {99, 5000}, {100, 9000}, {999, 9000},
		{1000, 9900}, {9999, 9900}, {10000, 9990}, {100000, 9999}, {10000000, 9999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	for pp, want := range map[int]string{5000: "p50", 9900: "p99", 9990: "p99.9", 9999: "p99.99"} {
		if got := percentileLabel(pp); got != want {
			t.Errorf("percentileLabel(%d) = %q, want %q", pp, got, want)
		}
	}
	sorted := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := nearestRank(sorted, 5000); got != 5 {
		t.Errorf("median of 1..10 = %d, want 5", got)
	}
	if got := nearestRank(sorted, 9900); got != 10 {
		t.Errorf("p99 of 1..10 = %d, want 10", got)
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]: it extrapolates.
	if q1, med, q3 := quartiles([]float64{3, 1}); q1 != 0.5 || med != 2 || q3 != 3.5 {
		t.Errorf("quartiles(1, 3) = %v %v %v, want 0.5 2 3.5", q1, med, q3)
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"gfs/internal/netsim.(*Network).solveClosure":           "netsim",
		"netsim.(*Network).solveClosure":                        "netsim",
		"gfs/internal/core.(*Mount).readAt.func1":               "core",
		"gfs/internal/sim.(*Sim).Run":                           "sim",
		"gfs/internal/raid.(*Set).Write":                        "raid",
		"gfs/internal/experiments.NewSite":                      "other",
		"crypto/internal/fips140/bigmod.(*Nat).montgomeryMul":   "auth",
		"runtime.chansend":                                      "runtime_sched",
		"runtime.chanrecv1":                                     "runtime_sched",
		"runtime.futex":                                         "runtime_sched",
		"runtime.scanobject":                                    "runtime_gc",
		"runtime.mallocgc":                                      "runtime_gc",
		"runtime.(*mspan).typePointersOfUnchecked":              "runtime_gc",
		"runtime.memmove":                                       "other",
		"slices.SortFunc[go.shape.[]*gfs/internal/core.page_0]": "other",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf encoder for building test profiles.
type pb []byte

func (b pb) varint(x uint64) pb {
	for x >= 0x80 {
		b = append(b, byte(x)|0x80)
		x >>= 7
	}
	return append(b, byte(x))
}
func (b pb) uint(field int, x uint64) pb { return b.varint(uint64(field << 3)).varint(x) }
func (b pb) bytes(field int, d []byte) pb {
	return append(b.varint(uint64(field<<3|2)).varint(uint64(len(d))), d...)
}

func TestSelfTimeByBucket(t *testing.T) {
	var p pb
	for _, s := range []string{"", "samples", "count", "cpu", "nanoseconds",
		"gfs/internal/netsim.(*Network).solveClosure", "runtime.chansend1", "main.main"} {
		p = p.bytes(profStringTable, []byte(s))
	}
	for id, name := range []uint64{5, 6, 7} {
		p = p.bytes(profFunction, pb{}.uint(functionID, uint64(id+1)).uint(functionName, name))
	}
	// Location 1 is solveClosure inlined into main.main; location 2 is
	// chansend1. Self time goes to the innermost frame.
	p = p.bytes(profLocation, pb{}.uint(locationID, 1).
		bytes(locationLine, pb{}.uint(lineFunctionID, 1)).
		bytes(locationLine, pb{}.uint(lineFunctionID, 3)))
	p = p.bytes(profLocation, pb{}.uint(locationID, 2).bytes(locationLine, pb{}.uint(lineFunctionID, 2)))
	// Packed location ids and values.
	p = p.bytes(profSample, pb{}.bytes(sampleLocationID, pb{}.varint(1).varint(2)).bytes(sampleValue, pb{}.varint(3).varint(30e6)))
	// Unpacked.
	p = p.bytes(profSample, pb{}.uint(sampleLocationID, 2).uint(sampleValue, 1).uint(sampleValue, 10e6))

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()
	got, err := selfTimeByBucket(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got["netsim"] != 30e6 || got["runtime_sched"] != 10e6 || len(got) != 2 {
		t.Errorf("self time = %v, want netsim 30ms and runtime_sched 10ms", got)
	}
	if _, err := selfTimeByBucket(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

func testResult() simResult {
	return simResult{ElapsedNs: 1234567, BytesRead: 1 << 30, BytesWritten: 1 << 20, Calls: 2048,
		Metrics: map[string]float64{"sim_read_MBps": 869.7, "sim_read_p99_ms": 12.5}}
}

func TestPerturbedPinFailsCheck(t *testing.T) {
	r := testResult()
	pins := map[string]workloadPins{"w": {Volume: volumeOf(r), Seeds: map[string]simResult{"0": testResult()}}}
	if err := checkSim(pins, "w", 0, r); err != nil {
		t.Fatalf("unperturbed: %v", err)
	}
	if err := checkSim(pins, "w", 7, r); err != nil {
		t.Fatalf("unpinned seed with the pinned volume: %v", err)
	}
	perturb := []func(*simResult){
		func(s *simResult) { s.ElapsedNs++ },
		func(s *simResult) { s.Metrics["sim_read_p99_ms"] = 12.500000000000002 },
		func(s *simResult) { delete(s.Metrics, "sim_read_MBps") },
	}
	for i, f := range perturb {
		want := testResult()
		f(&want)
		pins["w"].Seeds["0"] = want
		if checkSim(pins, "w", 0, r) == nil {
			t.Errorf("perturbation %d passed the check", i)
		}
		// A run judged against the perturbed pin counts every call failed.
		it := iterResult{Sim: r}
		if v := judge([]iterResult{it, it}, "w", 0, pins); v.failed != v.attempted || v.attempted != 2*r.Calls {
			t.Errorf("perturbation %d: %d of %d calls failed", i, v.failed, v.attempted)
		}
	}
	moved := testResult()
	moved.BytesRead--
	if checkSim(pins, "w", 7, moved) == nil {
		t.Error("a different volume passed at an unpinned seed")
	}
}

// The seed varies only the timeline: every pinned seed of a workload
// moves the same calls and bytes, and the seeds do not all share one
// virtual elapsed time.
func TestPinnedSeedsShareVolumeNotTimeline(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		wp, ok := pins[w.name]
		if !ok || len(wp.Seeds) < 2 {
			t.Errorf("%s: fewer than two pinned seeds", w.name)
			continue
		}
		elapsed := map[int64]bool{}
		for seed, r := range wp.Seeds {
			if volumeOf(r) != wp.Volume {
				t.Errorf("%s seed %s: volume %+v, want %+v", w.name, seed, volumeOf(r), wp.Volume)
			}
			elapsed[r.ElapsedNs] = true
		}
		if wp.Seeds["0"].ElapsedNs == wp.Seeds["1"].ElapsedNs {
			t.Errorf("%s: seeds 0 and 1 share elapsed %d ns", w.name, wp.Seeds["0"].ElapsedNs)
		}
		t.Logf("%s: %d seeds, %d distinct timelines, %d calls", w.name, len(wp.Seeds), len(elapsed), wp.Volume.Calls)
	}
}
