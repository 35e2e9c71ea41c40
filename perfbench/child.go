package main

import (
	"math"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/simulation"
)

// outputs are a run's deterministic learning results.
type outputs struct {
	FinalAcc   float64
	TotalBytes int64
	SimTime    float64
}

func outputsOf(res *simulation.Result) outputs {
	return outputs{FinalAcc: res.FinalAccuracy, TotalBytes: res.TotalBytes, SimTime: res.SimTime}
}

// equal compares bit for bit: the engines promise identical results across
// parallelism, so any difference is a defect.
func (o outputs) equal(p outputs) bool {
	return math.Float64bits(o.FinalAcc) == math.Float64bits(p.FinalAcc) &&
		o.TotalBytes == p.TotalBytes &&
		math.Float64bits(o.SimTime) == math.Float64bits(p.SimTime)
}

// report is what one child process measured; the parent reads it as JSON.
type report struct {
	Err     string `json:",omitempty"`
	Out     outputs
	SynthS  float64  // workload synthesis
	FleetS  float64  // experiments.BuildFleet (setup and traced children)
	RunS    float64  // experiments.Run, or the traced engine run
	CPUS    float64  // process user+sys CPU
	RSSMB   float64  // process peak resident set
	Layers  *layers  `json:",omitempty"`
	Kernels *kernels `json:",omitempty"`
}

// layers is the per-layer split of one traced run.
type layers struct {
	TrainS, ShareS, AggS, EvalS   float64
	TrainCalls, ShareCalls        int64
	AggCalls, EvalCalls           int64
	PayloadBytes                  int64
	Events                        int64
	SpecHitRate, QueueP95         float64
	DecodeHits, DecodeMisses      int64
	AllocBytes, Mallocs, GCCycles uint64
}

// spans is the host time the traced layer calls cover.
func (l *layers) spans() float64 { return l.TrainS + l.ShareS + l.AggS + l.EvalS }

func failed(err error) report { return report{Err: err.Error()} }

// childSetup synthesizes the workload and builds its fleet: what a user pays
// before experiments.Run starts the engine.
func childSetup(wl workload, sz size, seed uint64) report {
	t0 := time.Now()
	w, err := wl.synth(sz.Nodes, seed)
	if err != nil {
		return failed(err)
	}
	t1 := time.Now()
	nodes, err := experiments.BuildFleet(w, wl.spec(w, sz.Rounds, seed).Algo, seed)
	if err != nil {
		return failed(err)
	}
	t2 := time.Now()
	runtime.KeepAlive(nodes)
	return finish(report{SynthS: t1.Sub(t0).Seconds(), FleetS: t2.Sub(t1).Seconds()})
}

// childRun is the untraced run, through the public API users drive.
func childRun(wl workload, sz size, seed uint64) report {
	t0 := time.Now()
	w, err := wl.synth(sz.Nodes, seed)
	if err != nil {
		return failed(err)
	}
	t1 := time.Now()
	res, err := experiments.Run(wl.spec(w, sz.Rounds, seed))
	if err != nil {
		return failed(err)
	}
	t2 := time.Now()
	return finish(report{Out: outputsOf(res), SynthS: t1.Sub(t0).Seconds(), RunS: t2.Sub(t1).Seconds()})
}

// tracedRun is one traced run: its result, its decorated nodes and the
// per-layer split.
type tracedRun struct {
	res                  *simulation.Result
	nodes                []*timedNode
	layers               *layers
	synthS, fleetS, runS float64
}

// runTraced builds the same fleet experiments.Run would, with every node and
// model wrapped in timing decorators, and runs it at the given parallelism.
func runTraced(wl workload, sz size, seed uint64, parallelism int) (*tracedRun, error) {
	t0 := time.Now()
	w, err := wl.synth(sz.Nodes, seed)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	spec := wl.spec(w, sz.Rounds, seed)
	var models modelSet
	w.NewModel = models.wrap(w.NewModel)
	built, err := experiments.BuildFleet(w, spec.Algo, seed)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	timed := make([]*timedNode, len(built))
	nodes := make([]core.Node, len(built))
	for i, nd := range built {
		timed[i] = &timedNode{Node: nd}
		nodes[i] = timed[i]
	}
	var (
		tel     *simulation.Telemetry
		onEvent func(simulation.Event)
		events  int64
	)
	if spec.Async {
		tel = simulation.NewTelemetry()
		onEvent = func(simulation.Event) { events++ }
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t3 := time.Now()
	res, err := runOn(spec, nodes, parallelism, tel, onEvent)
	if err != nil {
		return nil, err
	}
	t4 := time.Now()
	runtime.ReadMemStats(&m1)

	l := &layers{
		Events:     events,
		AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
		Mallocs:    m1.Mallocs - m0.Mallocs,
		GCCycles:   uint64(m1.NumGC - m0.NumGC),
	}
	for _, n := range timed {
		l.TrainS += float64(n.train.ns) / 1e9
		l.ShareS += float64(n.share.ns) / 1e9
		l.AggS += float64(n.agg.ns) / 1e9
		l.TrainCalls += n.train.calls
		l.ShareCalls += n.share.calls
		l.AggCalls += n.agg.calls
		l.PayloadBytes += n.payloadBytes
	}
	ev := models.eval()
	l.EvalS, l.EvalCalls = float64(ev.ns)/1e9, ev.calls
	// Every cache-using node shares one fleet cache.
	if c := timed[0].cache; c != nil {
		l.DecodeHits, l.DecodeMisses = c.Stats()
	}
	if tel != nil {
		s := simulation.Summarize(tel.Snapshot())
		l.SpecHitRate, l.QueueP95 = s.SpecHitRate, s.QueueP95
	}
	return &tracedRun{
		res: res, nodes: timed, layers: l,
		synthS: t1.Sub(t0).Seconds(), fleetS: t2.Sub(t1).Seconds(), runS: t4.Sub(t3).Seconds(),
	}, nil
}

// childTraced is one traced run. The serial one also times the layer
// kernels on data captured from the run.
func childTraced(wl workload, sz size, seed uint64, parallelism int) report {
	tr, err := runTraced(wl, sz, seed, parallelism)
	if err != nil {
		return failed(err)
	}
	r := report{
		Out: outputsOf(tr.res), SynthS: tr.synthS, FleetS: tr.fleetS, RunS: tr.runS, Layers: tr.layers,
	}
	if parallelism == 1 {
		k, err := timeKernels(tr.nodes)
		if err != nil {
			return failed(err)
		}
		r.Kernels = k
	}
	return finish(r)
}

// finish stamps the process's CPU time and peak resident set (VmHWM) on r.
func finish(r report) report {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.CPUS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
		r.RSSMB = float64(ru.Maxrss) / 1024 // KiB on Linux
	}
	return r
}
