// Command perfbench times the paper's figure runs on the host and pins
// what they simulate. Each run repeats one workload in fresh child
// processes for a fixed wall-clock budget, reports medians, and fails if
// any simulated result, fsck or call check differs from what is pinned:
//
//	python3 perfbench/run.py --workload fig11-mpiio --seed 0 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced iterations and prints the per-layer metrics. The last line
// of standard output is the JSON result; the lines before it are a table
// of every metric with its unit and sample count, and a "record" line
// with the host fingerprint and every iteration's raw values.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// endToEnd are the metrics a --trace 0 run reports, in BENCHMARK.json order.
var endToEnd = []string{"wall_s", "setup_s", "max_rss_MiB", "sim_calls_per_s"}

const (
	// minIters is the fewest untraced iterations a run reports a median
	// of; a traced run also needs minTraced traced ones.
	minIters  = 3
	minTraced = 2
	// setupBudget is the wall time of set-up-only repetitions after
	// each iteration.
	setupBudget = time.Second
	// runLimit caps a whole run, whatever --seconds asks: the caller
	// allows 180 s.
	runLimit = 170 * time.Second
)

func main() {
	name := flag.String("workload", "", "fig11-mpiio | wan-read | metastorm")
	seed := flag.Int64("seed", 0, "seed for start staggers and rank-to-file assignment")
	seconds := flag.Float64("seconds", 10, "wall-clock budget for iterations")
	traceFlag := flag.Int("trace", 0, "1 = per-layer run: alternate untraced and traced iterations")
	iter := flag.Bool("iter", false, "run one iteration in this process and print its JSON record")
	setupOnly := flag.Bool("setup-only", false, "with -iter, stop after set-up")
	pin := flag.Int("pin", 0, "print pins.json for seeds 0..n-1 of every workload")
	flag.Parse()

	if *pin > 0 {
		if err := printPins(*pin); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloadByName(*name)
	if !ok || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload one of fig11-mpiio, wan-read, metastorm and -trace 0|1\n")
		os.Exit(2)
	}
	if *iter {
		if err := json.NewEncoder(os.Stdout).Encode(runIteration(w, *seed, *traceFlag == 1, *setupOnly)); err != nil {
			os.Exit(1)
		}
		return
	}
	pins, err := loadPins()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	if !report(w, *seed, budget, *traceFlag == 1, pins) {
		os.Exit(1)
	}
}

// runChild runs one iteration in a fresh process: the experiments
// package keeps globals, and peak RSS must be one iteration's.
func runChild(ctx context.Context, workload string, seed int64, traced, setupOnly bool) (iterResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return iterResult{}, err
	}
	args := []string{"-iter", "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
	}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return iterResult{}, fmt.Errorf("iteration of %s: %w", workload, err)
	}
	var r iterResult
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return iterResult{}, fmt.Errorf("iteration of %s: %w", workload, err)
	}
	if setupOnly && len(r.Problems) > 0 {
		return iterResult{}, fmt.Errorf("set-up of %s: %v", workload, r.Problems)
	}
	return r, nil
}

// runIterations repeats the workload until the budget is spent and at
// least minIters untraced (and, when traced, minTraced traced)
// iterations have run. Traced runs alternate untraced and traced
// iterations. After each one it repeats set-up alone, in fresh
// processes, for setupBudget: RSA keygen makes one set-up a noisy
// sample, and a timed phase is many times longer than a set-up.
// It returns the iterations and every set-up's timings.
func runIterations(workload string, seed int64, budget time.Duration, traced bool) ([]iterResult, []map[string]float64, error) {
	start := time.Now()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithDeadline(ctx, start.Add(runLimit))
	defer cancel()
	var rs []iterResult
	var setups []map[string]float64
	plain, withTrace := 0, 0
	for i := 0; ; i++ {
		t0 := time.Now()
		tr := traced && i%2 == 1
		r, err := runChild(ctx, workload, seed, tr, false)
		if err != nil {
			return rs, setups, err
		}
		rs = append(rs, r)
		setups = append(setups, r.Setup)
		for t := time.Now(); time.Since(t) < setupBudget; {
			r, err := runChild(ctx, workload, seed, false, true)
			if err != nil {
				return rs, setups, err
			}
			setups = append(setups, r.Setup)
		}
		if tr {
			withTrace++
		} else {
			plain++
		}
		enough := plain >= minIters && (!traced || withTrace >= minTraced)
		// Stop early rather than let another iteration hit runLimit.
		spent := time.Since(start)
		if enough && (spent >= budget || spent+time.Since(t0) >= runLimit) {
			return rs, setups, nil
		}
	}
}

// stat is one reported metric: its median over the run, quartiles,
// unit, sample count and the raw value of every iteration.
type stat struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	N     int       `json:"n"`
	Q1    float64   `json:"q1"`
	Q3    float64   `json:"q3"`
	Runs  []float64 `json:"runs"`
}

func newStat(name string, runs []float64, n int) stat {
	q1, med, q3 := quartiles(runs)
	return stat{Value: med, Unit: unitOf(name), N: n, Q1: q1, Q3: q3, Runs: runs}
}

// unitOf derives a metric's unit from its name's suffix.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_per_s") || strings.HasSuffix(name, "_per_wall_s"):
		return "1/s"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_MBps"):
		return "MB/s"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_MiB"):
		return "MiB"
	case strings.Contains(name, "bytes"):
		return "B"
	case strings.HasSuffix(name, "ratio") || strings.HasSuffix(name, "_over_mean") ||
		strings.HasSuffix(name, "_per_solve") || strings.HasSuffix(name, "_per_event"):
		return "ratio"
	}
	return "count"
}

// verdict is the run's correctness outcome.
type verdict struct {
	attempted, failed int64
	problems          []string
}

// judge checks every iteration: its own checks, the pins, and that all
// iterations of the run agree on every simulated value and every count.
func judge(rs []iterResult, workload string, seed int64, pins map[string]workloadPins) verdict {
	var v verdict
	var firstLayers map[string]float64
	allFailed := false
	for i, r := range rs {
		v.attempted += r.Sim.Calls
		if len(r.Problems) > 0 {
			v.failed += r.Sim.Calls
			v.problems = append(v.problems, r.Problems...)
			continue
		}
		v.failed += r.Failed
		if err := checkSim(pins, workload, seed, r.Sim); err != nil {
			v.problems = append(v.problems, err.Error())
			allFailed = true
		}
		if i > 0 && !reflect.DeepEqual(r.Sim, rs[0].Sim) {
			v.problems = append(v.problems, fmt.Sprintf("iteration %d simulated differently: %v", i, diffSim(rs[0].Sim, r.Sim)))
			allFailed = true
		}
		if r.Traced {
			if firstLayers == nil {
				firstLayers = r.Layers
			} else if d := diffCounts(firstLayers, r.Layers); len(d) > 0 {
				v.problems = append(v.problems, fmt.Sprintf("iteration %d counted differently: %v", i, d))
				allFailed = true
			}
		}
	}
	if allFailed {
		v.failed = v.attempted
	}
	return v
}

// diffCounts lists the per-layer counts that differ between two traced
// iterations of one seed; host measurements are skipped.
func diffCounts(a, b map[string]float64) []string {
	var d []string
	for k, x := range a {
		if !hostDependent(k) && b[k] != x {
			d = append(d, fmt.Sprintf("%s %v != %v", k, b[k], x))
		}
	}
	sort.Strings(d)
	return d
}

// report runs the workload, prints the table, the record and the result
// line, and returns whether the run was correct.
func report(w workload, seed int64, budget time.Duration, traced bool, pins map[string]workloadPins) bool {
	rs, setups, err := runIterations(w.name, seed, budget, traced)
	v := judge(rs, w.name, seed, pins)
	if err != nil {
		v.problems = append(v.problems, err.Error())
		v.failed = v.attempted
	}
	if v.attempted == 0 {
		v.attempted, v.failed = 1, 1
	}
	correct := len(v.problems) == 0 && v.failed == 0

	var plain, withTrace []iterResult
	for _, r := range rs {
		if r.Traced {
			withTrace = append(withTrace, r)
		} else {
			plain = append(plain, r)
		}
	}
	all := map[string]stat{}
	if len(plain) > 0 {
		addEndToEnd(all, plain, setups, v)
	}
	if len(withTrace) > 0 {
		addLayers(all, plain, withTrace, setups)
	}

	names := make([]string, 0, len(all))
	for k := range all {
		names = append(names, k)
	}
	sort.Strings(names)
	host := fingerprint()
	fmt.Printf("perfbench %s seed=%d traced=%v iterations=%d (%d traced) set-ups=%d host: %s\n",
		w.name, seed, traced, len(rs), len(withTrace), len(setups), host.String())
	fmt.Printf("%-40s %16s %-6s %7s %16s %16s\n", "metric", "median", "unit", "n", "q1", "q3")
	for _, k := range names {
		s := all[k]
		fmt.Printf("%-40s %16.6g %-6s %7d %16.6g %16.6g\n", k, s.Value, s.Unit, s.N, s.Q1, s.Q3)
	}
	for _, p := range v.problems {
		fmt.Println("FAIL:", p)
	}
	rec, _ := json.Marshal(map[string]any{"workload": w.name, "seed": seed, "traced": traced, "host": host, "metrics": all})
	fmt.Printf("record %s\n", rec)

	want := endToEnd
	if traced {
		want = perLayerNames(withTrace)
	}
	metrics := map[string]map[string]any{}
	for _, k := range want {
		if s, ok := all[k]; ok {
			metrics[k] = map[string]any{"value": s.Value, "unit": s.Unit}
		}
	}
	out, _ := json.Marshal(map[string]any{"correct": correct, "attempted": v.attempted, "failed": v.failed, "metrics": metrics})
	fmt.Println(string(out))
	return correct
}

// addEndToEnd adds the user-visible metrics: host ones from untraced
// iterations and every set-up, simulated ones (identical across
// iterations) from the first iteration.
func addEndToEnd(all map[string]stat, plain []iterResult, setups []map[string]float64, v verdict) {
	var wall, rss []float64
	for _, r := range plain {
		wall = append(wall, r.WallS)
		rss = append(rss, r.MaxRSSMiB)
	}
	all["wall_s"] = newStat("wall_s", wall, len(wall))
	all["setup_s"] = setupStat("setup_s", setups)
	all["max_rss_MiB"] = newStat("max_rss_MiB", rss, len(rss))
	first := plain[0]
	for k, x := range first.Sim.Metrics {
		n := int(first.Sim.Calls)
		if fam := strings.Split(k, "_")[1]; first.Samples[fam] > 0 {
			n = first.Samples[fam]
		}
		all[k] = newStat(k, []float64{x}, n)
	}
	all["failed_ops_pct"] = newStat("failed_ops_pct", []float64{pct(float64(v.failed), float64(v.attempted))}, int(v.attempted))
}

func setupStat(name string, setups []map[string]float64) stat {
	var runs []float64
	for _, s := range setups {
		runs = append(runs, s[name])
	}
	return newStat(name, runs, len(runs))
}

// addLayers adds the per-layer metrics of the traced iterations, the
// CPU split of their summed profiles, the set-up spans of every set-up
// and the tracing overhead against the untraced iterations.
func addLayers(all map[string]stat, plain, withTrace []iterResult, setups []map[string]float64) {
	for k := range withTrace[0].Layers {
		var runs []float64
		for _, r := range withTrace {
			runs = append(runs, r.Layers[k])
		}
		all[k] = newStat(k, runs, len(runs))
	}
	for _, k := range setupSpans {
		all[k] = setupStat(k, setups)
	}
	cpu := map[string]int64{}
	var total int64
	for _, r := range withTrace {
		for b, ns := range r.CPUNs {
			cpu[b] += ns
			total += ns
		}
	}
	for _, b := range cpuBuckets {
		name := "cpu." + b + ".self_pct"
		all[name] = newStat(name, []float64{pct(float64(cpu[b]), float64(total))}, int(total/1e7)) // 100 Hz samples
	}
	var tw, pw []float64
	for _, r := range withTrace {
		tw = append(tw, r.WallS)
	}
	for _, r := range plain {
		pw = append(pw, r.WallS)
	}
	over := 100 * (median(tw)/median(pw) - 1)
	all["trace.overhead_pct"] = newStat("trace.overhead_pct", []float64{over}, len(tw)+len(pw))
}

// perLayerNames is the --trace 1 metric list: every per-layer value of an
// iteration plus the CPU split and the tracing overhead.
func perLayerNames(withTrace []iterResult) []string {
	var names []string
	if len(withTrace) > 0 {
		for k := range withTrace[0].Layers {
			names = append(names, k)
		}
	}
	for _, b := range cpuBuckets {
		names = append(names, "cpu."+b+".self_pct")
	}
	names = append(names, setupSpans...)
	names = append(names, "trace.overhead_pct")
	sort.Strings(names)
	return names
}

// host identifies the machine and build a result was measured on.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func (h host) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s", h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.Commit)
}

func fingerprint() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	return h
}

// printPins runs seeds 0..n-1 of every workload and prints pins.json.
func printPins(n int) error {
	ctx := context.Background()
	out := map[string]workloadPins{}
	for _, w := range workloads {
		wp := workloadPins{Seeds: map[string]simResult{}}
		for seed := int64(0); seed < int64(n); seed++ {
			r, err := runChild(ctx, w.name, seed, false, false)
			if err != nil {
				return err
			}
			if len(r.Problems) > 0 {
				return fmt.Errorf("%s seed %d: %v", w.name, seed, r.Problems)
			}
			if seed == 0 {
				wp.Volume = volumeOf(r.Sim)
			} else if volumeOf(r.Sim) != wp.Volume {
				return errors.New(w.name + ": volume depends on the seed")
			}
			wp.Seeds[strconv.FormatInt(seed, 10)] = r.Sim
			fmt.Fprintf(os.Stderr, "pinned %s seed %d: %d ns\n", w.name, seed, r.Sim.ElapsedNs)
		}
		out[w.name] = wp
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}
