// Command perfbench is the repository benchmark. It runs one named workload
// through the public experiments API, each run in a fresh process, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer split from
// a traced run) as one JSON object on the last line of standard output.
//
//	go build -o perfbench . && ./perfbench -workload scale-jwins2048 -seed 42 -seconds 30 -trace 0
//
// See README.md for the metrics, the workloads and the layer map.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// setupRuns is how many set-up-only processes each untraced invocation
// starts, setupsPerRun of them before each measured run so that they sample
// the same host conditions; set-up takes tens of milliseconds, so its median
// needs many samples.
const (
	setupRuns    = 15
	setupsPerRun = 3
)

// minRuns is the fewest measured runs an untraced invocation makes.
const minRuns = 3

// childTimeout bounds one child process.
const childTimeout = 150 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 42, "workload seed")
		seconds = flag.Float64("seconds", 30, "measuring time")
		trace   = flag.Int("trace", 0, "1 reports the per-layer split of a traced run")
		child   = flag.String("child", "", "internal: run one measurement (setup, run or traced) and print it")
		par     = flag.Int("parallelism", 0, "internal: engine parallelism of a traced child")
	)
	flag.Parse()
	wl, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *child != "" {
		var r report
		switch *child {
		case "setup":
			r = childSetup(wl, wl.full(), *seed)
		case "run":
			r = childRun(wl, wl.full(), *seed)
		case "traced":
			r = childTraced(wl, wl.full(), *seed, *par)
		default:
			fmt.Fprintln(os.Stderr, "perfbench: unknown child mode", *child)
			os.Exit(2)
		}
		if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	b := &bench{wl: wl, seed: *seed, budget: time.Duration(*seconds * float64(time.Second))}
	host := map[string]any{
		"workload": wl.Name, "seed": *seed, "trace": *trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"parallelism": runtime.NumCPU(), "go": runtime.Version(),
	}
	hostLine, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostLine)
	var metrics map[string]metric
	if *trace == 1 {
		metrics = b.traced()
	} else {
		metrics = b.untraced()
	}
	if b.ref != nil {
		outLine, _ := json.Marshal(b.ref)
		fmt.Printf("outputs %s\n", outLine)
	}
	out, err := json.Marshal(result{
		Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench runs child processes for one workload and seed and checks their
// outputs. Each child is one attempted operation.
type bench struct {
	wl        workload
	seed      uint64
	budget    time.Duration
	attempted int
	failed    int
	// ref is the first successful run's outputs; every later run of the
	// seed, traced or not, at any parallelism, must reproduce it exactly.
	ref *outputs
}

// spawn runs one child process and returns its report, or nil after
// counting the failure.
func (b *bench) spawn(args ...string) *report {
	b.attempted++
	self, err := os.Executable()
	if err != nil {
		return b.fail("locating the benchmark binary: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	args = append([]string{"-workload", b.wl.Name, "-seed", strconv.FormatUint(b.seed, 10)}, args...)
	cmd := exec.CommandContext(ctx, self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return b.fail("child %v: %v", args, err)
	}
	var r report
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return b.fail("child %v: reading its report: %v", args, err)
	}
	if r.Err != "" {
		return b.fail("child %v: %s", args, r.Err)
	}
	return &r
}

func (b *bench) fail(format string, args ...any) *report {
	b.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
	return nil
}

// check verifies a run's learning outputs: a finite accuracy in [0,1], and
// the same results as every other run of this seed.
func (b *bench) check(r *report, what string) bool {
	o := r.Out
	if math.IsNaN(o.FinalAcc) || o.FinalAcc < 0 || o.FinalAcc > 1 || math.IsNaN(o.SimTime) || math.IsInf(o.SimTime, 0) {
		b.fail("%s: final accuracy %v, simulated time %v", what, o.FinalAcc, o.SimTime)
		return false
	}
	if b.ref == nil {
		b.ref = &o
		return true
	}
	if !o.equal(*b.ref) {
		b.fail("%s: outputs %+v differ from the seed's first run %+v", what, o, *b.ref)
		return false
	}
	return true
}

// outputs returns the seed's learning outputs, zero when no run succeeded.
func (b *bench) outputs() outputs {
	if b.ref == nil {
		return outputs{}
	}
	return *b.ref
}

func (b *bench) iters() float64 { return float64(b.wl.Nodes * b.wl.Rounds) }

// untraced measures the end-to-end metrics: full runs until the time budget
// is spent, with set-up-only processes interleaved before the first ones.
func (b *bench) untraced() map[string]metric {
	var setup, ips, cpu, rss []float64
	setups := 0
	start := time.Now()
	for runs := 0; runs < minRuns || time.Since(start) < b.budget; runs++ {
		for i := 0; i < setupsPerRun && setups < setupRuns; i++ {
			setups++
			if r := b.spawn("-child", "setup"); r != nil {
				setup = append(setup, r.SynthS+r.FleetS)
			}
		}
		r := b.spawn("-child", "run")
		if r == nil || !b.check(r, "run") {
			continue
		}
		ips = append(ips, b.iters()/r.RunS)
		cpu = append(cpu, r.CPUS)
		rss = append(rss, r.RSSMB)
		fmt.Fprintf(os.Stderr, "perfbench: run %d: synth %.3fs run %.3fs cpu %.3fs rss %.0fMB\n",
			runs, r.SynthS, r.RunS, r.CPUS, r.RSSMB)
	}
	m := map[string]metric{
		"iters_per_s": {median(ips), "1/s"},
		"setup_s":     {median(setup), "s"},
		"cpu_s":       {median(cpu), "s"},
		"peak_rss_mb": {median(rss), "MB"},
	}
	m["wire_mb"] = metric{float64(b.outputs().TotalBytes) / 1e6, "MB"}
	return m
}

// traced measures the per-layer split: a traced run at parallelism 1, where
// the layer spans and the event loop's self time add up to the wall time and
// which also times the kernels; a
// traced run at the engine's default parallelism for pool occupancy; and
// untraced runs for the tracing overhead, until the time budget is spent.
// A failed traced run leaves its metrics at zero.
func (b *bench) traced() map[string]metric {
	start := time.Now()
	p := runtime.NumCPU()
	serial := b.spawn("-child", "traced", "-parallelism", "1")
	if serial == nil || !b.check(serial, "traced run at parallelism 1") {
		serial = &report{Layers: &layers{}, Kernels: &kernels{}}
	}
	par := b.spawn("-child", "traced", "-parallelism", strconv.Itoa(p))
	if par == nil || !b.check(par, fmt.Sprintf("traced run at parallelism %d", p)) {
		par = &report{Layers: &layers{}}
	}
	var walls []float64
	for runs := 0; runs < 1 || time.Since(start) < b.budget; runs++ {
		r := b.spawn("-child", "run")
		if r != nil && b.check(r, "untraced run") {
			walls = append(walls, r.RunS)
		}
	}

	sl, pl, k, wall := serial.Layers, par.Layers, serial.Kernels, serial.RunS
	self := wall - sl.spans()
	fmt.Fprintf(os.Stderr, "perfbench: split at parallelism 1: wall %.3fs = train %.3f + share %.3f + aggregate %.3f + eval %.3f + loop self %.3f\n",
		wall, sl.TrainS, sl.ShareS, sl.AggS, sl.EvalS, self)
	if self < 0 {
		b.fail("layer spans %.3fs exceed the wall time %.3fs at parallelism 1", sl.spans(), wall)
	}
	out := b.outputs()
	m := map[string]metric{}
	// Ratios over a failed run's zeros are NaN; report those as zero.
	set := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{v, unit}
	}
	set("simulation.loop_self_s", "s", self)
	set("simulation.serial_frac", "fraction", self/wall)
	set("simulation.pool_busy_frac", "fraction", pl.spans()/(float64(p)*par.RunS))
	set("simulation.spec_hit_rate", "fraction", pl.SpecHitRate)
	set("simulation.queue_p95", "count", pl.QueueP95)
	set("simulation.events", "count", float64(pl.Events))
	set("simulation.sim_s", "s", out.SimTime)
	set("core.aggregate_s", "s", sl.AggS)
	set("core.aggregate_calls", "count", float64(sl.AggCalls))
	set("core.decode_hit_rate", "fraction", float64(pl.DecodeHits)/float64(pl.DecodeHits+pl.DecodeMisses))
	set("core.share_s", "s", sl.ShareS)
	set("core.share_calls", "count", float64(sl.ShareCalls))
	set("core.payload_kb_mean", "kB", float64(sl.PayloadBytes)/1e3/float64(sl.ShareCalls))
	set("codec.encode_us", "us", k.EncodeUS)
	set("codec.decode_us", "us", k.DecodeUS)
	set("dwt.forward_us", "us", k.DWTForwardUS)
	set("dwt.inverse_us", "us", k.DWTInverseUS)
	set("sparsify.topk_us", "us", k.TopKUS)
	set("nn.train_s", "s", sl.TrainS)
	set("nn.train_calls", "count", float64(sl.TrainCalls))
	set("nn.eval_s", "s", sl.EvalS)
	set("nn.eval_calls", "count", float64(sl.EvalCalls))
	set("datasets.synth_s", "s", serial.SynthS)
	set("experiments.fleet_build_s", "s", serial.FleetS)
	set("experiments.final_acc", "fraction", out.FinalAcc)
	set("runtime.alloc_mb", "MB", float64(sl.AllocBytes)/1e6)
	set("runtime.allocs_per_iter", "count", float64(sl.Mallocs)/b.iters())
	set("runtime.gc_cycles", "count", float64(sl.GCCycles))
	set("bench.trace_overhead_frac", "fraction", par.RunS/median(walls)-1)
	return m
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
