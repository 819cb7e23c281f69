package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"gfs/internal/experiments"
	"gfs/internal/netsim"
	"gfs/internal/sim"
)

// op labels one kind of timed file-system call.
type op int

const (
	opRead op = iota
	opWrite
	opCreate
	opStat
	opRemove
	opOpen // open, and MPI-IO's collective open-with-create
	opClose
	nOps
)

var opNames = [nOps]string{"read", "write", "create", "stat", "remove", "open", "close"}

// families group calls into the reported sim_* metrics. A workload
// reports a family when it sets that family's window.
var families = []struct {
	name string
	ops  []op
}{
	{"read", []op{opRead}},
	{"write", []op{opWrite}},
	{"meta", []op{opCreate, opStat, opRemove}},
}

// callLog records every timed call: outcome, virtual latency, bytes.
type callLog struct {
	lat          [nOps][]int64 // virtual ns of each successful call
	calls        int64
	failed       int64
	firstErr     error
	bytesRead    int64
	bytesWritten int64
}

// done records a call that started at virtual time t0 and returned err,
// passing err through.
func (c *callLog) done(o op, p *sim.Proc, t0 sim.Time, err error) error {
	c.calls++
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = fmt.Errorf("%s: %w", opNames[o], err)
		}
		return err
	}
	c.lat[o] = append(c.lat[o], int64(p.Now()-t0))
	return nil
}

// iteration is one set-up and timed phase of one workload, in this
// process. The simulator state it builds is discarded afterwards.
type iteration struct {
	seed      int64
	trace     bool
	setupOnly bool

	s      *sim.Sim
	nw     *netsim.Network
	sites  []*experiments.Site
	wan    *netsim.Link // link carrying the timed WAN reads, if any
	log    callLog
	window map[string]sim.Time // family -> simulated window of its rate

	wantRead, wantWritten int64 // bytes the configuration moves

	setupStart     time.Time
	setupEnd       time.Time
	spans          map[string]float64
	hostT0, hostT1 time.Time
	simT0, simT1   sim.Time
	before, after  counters
	probe          *sim.EngineProbe
	engine         sim.EngineSnapshot
	prof           bytes.Buffer
	profErr        error
	problems       []string
}

// setupSpans are the host-timed set-up steps.
var setupSpans = []string{"setup.cluster_s", "setup.fs_s", "setup.mount_s", "setup.seed_s"}

func (it *iteration) span(name string, fn func()) {
	t := time.Now()
	fn()
	it.spans[name] += time.Since(t).Seconds()
}

func (it *iteration) problem(format string, args ...any) {
	it.problems = append(it.problems, fmt.Sprintf(format, args...))
}

// startTimed ends set-up and starts the timed phase. Counter snapshots,
// the engine probe and the profiler start outside the host clock. It
// returns false in a set-up-only iteration, which then stops.
func (it *iteration) startTimed(p *sim.Proc) bool {
	it.setupEnd = time.Now()
	if it.setupOnly {
		return false
	}
	it.before = it.snapshot()
	if it.trace {
		it.probe = sim.NewEngineProbe()
		it.s.SetEngineProbe(it.probe)
		it.profErr = pprof.StartCPUProfile(&it.prof)
	}
	it.simT0 = p.Now()
	it.hostT0 = time.Now()
	return true
}

// endTimed stops the timed phase: host clock first, then the probes.
func (it *iteration) endTimed(p *sim.Proc) {
	it.hostT1 = time.Now()
	it.simT1 = p.Now()
	if it.trace {
		if it.profErr == nil {
			pprof.StopCPUProfile()
		}
		it.engine = it.probe.Snapshot()
		it.s.SetEngineProbe(nil)
	}
	it.after = it.snapshot()
}

// iterResult is what one child process reports to the parent.
type iterResult struct {
	Traced    bool               `json:"traced"`
	WallS     float64            `json:"wall_s"`
	MaxRSSMiB float64            `json:"max_rss_MiB"`
	Setup     map[string]float64 `json:"setup"` // setup_s and its setup.* spans
	Sim       simResult          `json:"sim"`
	Samples   map[string]int     `json:"samples"`
	Failed    int64              `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	CPUNs     map[string]int64   `json:"cpu_ns,omitempty"`
}

// simResult is the virtual-time outcome of the timed phase. For a given
// workload and seed it must repeat exactly; pins.json holds it per seed.
type simResult struct {
	ElapsedNs    int64              `json:"elapsed_ns"`
	BytesRead    int64              `json:"bytes_read"`
	BytesWritten int64              `json:"bytes_written"`
	Calls        int64              `json:"calls"`
	Metrics      map[string]float64 `json:"metrics"`
}

// runIteration builds and runs one iteration of w in this process; with
// setupOnly it stops after set-up and reports only its timing.
func runIteration(w workload, seed int64, traced, setupOnly bool) iterResult {
	it := &iteration{
		seed: seed, trace: traced, setupOnly: setupOnly,
		window: map[string]sim.Time{},
		spans:  map[string]float64{},
	}
	it.setupStart = time.Now()
	it.s = experiments.NewSim()
	it.nw = newEthernetNet(it.s)
	body := w.build(it)
	var err error
	finished := false
	it.s.Go("experiment", func(p *sim.Proc) {
		err = body(p)
		finished = true
	})
	it.s.Run()

	setup := map[string]float64{"setup_s": it.setupEnd.Sub(it.setupStart).Seconds()}
	for _, k := range setupSpans {
		setup[k] = it.spans[k]
	}
	if setupOnly {
		if !finished || err != nil {
			return iterResult{Problems: []string{fmt.Sprintf("set-up: %v", err)}}
		}
		return iterResult{Setup: setup}
	}
	switch {
	case !finished:
		it.problem("simulation deadlocked")
	case err != nil:
		it.problem("workload: %v", err)
	case it.hostT1.IsZero():
		it.problem("timed phase never ran")
	}
	if it.log.failed > 0 {
		it.problem("%d of %d calls failed, first: %v", it.log.failed, it.log.calls, it.log.firstErr)
	}
	for _, site := range it.sites {
		if site.FS == nil {
			continue
		}
		if rep := site.FS.Check(); !rep.OK() {
			it.problem("%s: %s: %v", site.FS.Name, rep, rep.Problems)
		}
	}
	// ReadAt and WriteAt fail rather than move less than asked, so with
	// no failed call the bytes asked for must be the configured volume.
	if it.log.bytesRead != it.wantRead || it.log.bytesWritten != it.wantWritten {
		it.problem("moved %d bytes read and %d written, configured %d and %d",
			it.log.bytesRead, it.log.bytesWritten, it.wantRead, it.wantWritten)
	}

	res := iterResult{
		Traced: traced,
		WallS:  it.hostT1.Sub(it.hostT0).Seconds(),
		Setup:  setup,
		Sim:    it.simResult(),
		Failed: it.log.failed,
	}
	res.Samples = map[string]int{}
	for _, f := range families {
		if _, ok := it.window[f.name]; ok {
			res.Samples[f.name] = len(it.familyLatencies(f.ops))
		}
	}
	if traced {
		res.Layers = it.layers()
		if it.profErr != nil {
			it.problem("cpu profile: %v", it.profErr)
		} else if cpu, err := selfTimeByBucket(it.prof.Bytes()); err != nil {
			it.problem("%v", err)
		} else {
			res.CPUNs = cpu
		}
	}
	res.Problems = it.problems
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		res.MaxRSSMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return res
}

func (it *iteration) familyLatencies(ops []op) []int64 {
	var out []int64
	for _, o := range ops {
		out = append(out, it.log.lat[o]...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// simResult computes every sim_* metric. Rates use the same arithmetic
// as the figure runners, so seed 0 reproduces their headlines bit for bit.
func (it *iteration) simResult() simResult {
	elapsed := it.simT1 - it.simT0
	r := simResult{
		ElapsedNs: int64(elapsed), BytesRead: it.log.bytesRead, BytesWritten: it.log.bytesWritten,
		Calls: it.log.calls, Metrics: map[string]float64{},
	}
	if elapsed <= 0 {
		return r
	}
	r.Metrics["sim_calls_per_s"] = float64(r.Calls) / elapsed.Seconds()
	for _, f := range families {
		win, ok := it.window[f.name]
		if !ok || win <= 0 {
			continue
		}
		lat := it.familyLatencies(f.ops)
		switch f.name {
		case "read":
			r.Metrics["sim_read_MBps"] = float64(r.BytesRead) / win.Seconds() / 1e6
		case "write":
			r.Metrics["sim_write_MBps"] = float64(r.BytesWritten) / win.Seconds() / 1e6
		case "meta":
			r.Metrics["sim_meta_ops_per_s"] = float64(len(lat)) / win.Seconds()
		}
		for _, pp := range latencyPoints(len(lat)) {
			name := fmt.Sprintf("sim_%s_%s_ms", f.name, percentileLabel(pp))
			r.Metrics[name] = float64(nearestRank(lat, pp)) / 1e6
		}
	}
	return r
}

// latencyPoints are the percentiles reported for n samples: the median,
// p99, and the highest percentile with enough samples beyond it when that
// is another one.
func latencyPoints(n int) []int {
	pts := []int{5000, 9900}
	if t := tailPercentile(n); t != 5000 && t != 9900 && t != 0 {
		pts = append(pts, t)
	}
	return pts
}
