package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/simulation"
	"repro/internal/topology"
	"repro/internal/vec"
)

// span accumulates the host time and call count of one layer boundary.
// Each span is owned by one node (or one model), and the engines never run
// two calls of the same node at once, so spans need no synchronization.
type span struct {
	ns    int64
	calls int64
}

func (s *span) record(t0 time.Time) {
	s.ns += int64(time.Since(t0))
	s.calls++
}

// timedNode wraps a core.Node and times the three calls the engines make
// into it. It forwards the optional interfaces the engines probe for:
// core.DecodeCacheUser (without it the fleet-shared decode cache silently
// turns off) and LocalStepCount (the simulated time model reads it).
type timedNode struct {
	core.Node
	train, share, agg span
	payloadBytes      int64
	lastPayload       []byte
	cache             *core.DecodeCache
}

var (
	_ core.Node            = (*timedNode)(nil)
	_ core.DecodeCacheUser = (*timedNode)(nil)
)

func (n *timedNode) LocalTrain() float64 {
	t0 := time.Now()
	loss := n.Node.LocalTrain()
	n.train.record(t0)
	return loss
}

func (n *timedNode) Share(round int) ([]byte, codec.ByteBreakdown, error) {
	t0 := time.Now()
	p, bd, err := n.Node.Share(round)
	n.share.record(t0)
	n.payloadBytes += int64(len(p))
	n.lastPayload = p
	return p, bd, err
}

func (n *timedNode) Aggregate(round int, w topology.Weights, msgs map[int][]byte) error {
	t0 := time.Now()
	err := n.Node.Aggregate(round, w, msgs)
	n.agg.record(t0)
	return err
}

// SetDecodeCache forwards to the wrapped node and remembers the cache so the
// benchmark can read its hit statistics after the run.
func (n *timedNode) SetDecodeCache(c *core.DecodeCache) {
	if u, ok := n.Node.(core.DecodeCacheUser); ok {
		u.SetDecodeCache(c)
		n.cache = c
	}
}

// LocalStepCount forwards tau, with the engines' fallback of 1.
func (n *timedNode) LocalStepCount() int {
	if s, ok := n.Node.(interface{ LocalStepCount() int }); ok {
		return s.LocalStepCount()
	}
	return 1
}

// timedModel wraps an nn.Trainable and times evaluation batches.
type timedModel struct {
	nn.Trainable
	eval span
}

func (m *timedModel) EvalBatch(x *nn.Tensor, y []float64) (float64, int, int) {
	t0 := time.Now()
	loss, correct, count := m.Trainable.EvalBatch(x, y)
	m.eval.record(t0)
	return loss, correct, count
}

// modelSet records every timedModel a wrapped Workload.NewModel builds.
// Copy-on-write fleets build node models on first touch, which can happen on
// pool workers, so registration is locked.
type modelSet struct {
	mu     sync.Mutex
	models []*timedModel
}

func (s *modelSet) wrap(build func(*vec.RNG) nn.Trainable) func(*vec.RNG) nn.Trainable {
	return func(r *vec.RNG) nn.Trainable {
		m := &timedModel{Trainable: build(r)}
		s.mu.Lock()
		s.models = append(s.models, m)
		s.mu.Unlock()
		return m
	}
}

func (s *modelSet) eval() span {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total span
	for _, m := range s.models {
		total.ns += m.eval.ns
		total.calls += m.eval.calls
	}
	return total
}

// runOn executes spec over pre-built nodes the way experiments.Run does for
// the static-topology specs the benchmark defines, but with the engine's
// parallelism and observation hooks under the caller's control. The seed
// salts match experiments.Run; the traced-equals-untraced check guards that.
func runOn(spec experiments.RunSpec, nodes []core.Node, parallelism int, tel *simulation.Telemetry, onEvent func(simulation.Event)) (*simulation.Result, error) {
	if spec.Dynamic || spec.EpochSec > 0 || spec.Recorder != nil || spec.Replay != nil || spec.Gossip {
		return nil, fmt.Errorf("traced runs cover static-topology specs only")
	}
	w := spec.Workload
	g, err := topology.Regular(w.Nodes, w.Degree, vec.NewRNG(spec.Seed^0x746f706f))
	if err != nil {
		return nil, err
	}
	provider := topology.NewStatic(g)
	rounds := spec.Rounds
	if rounds == 0 {
		rounds = w.Rounds
	}
	cfg := simulation.Config{
		Rounds:         rounds,
		EvalEvery:      w.EvalEvery,
		EvalNodes:      spec.EvalNodes,
		EvalSample:     spec.EvalSample,
		EvalRotate:     spec.EvalRotate,
		EvalSeed:       spec.Seed,
		TargetAccuracy: spec.TargetAccuracy,
		FaultSeed:      spec.Seed,
		Parallelism:    parallelism,
	}
	if !spec.Async {
		eng := &simulation.Engine{Nodes: nodes, Topology: provider, TestSet: w.Dataset, Config: cfg}
		return eng.Run()
	}
	acfg := simulation.AsyncConfig{
		Config: cfg, Het: spec.Het, Policy: spec.Policy, MixingEvery: spec.MixingEvery,
		Telemetry: tel, OnEvent: onEvent,
	}
	if acfg.Het.Seed == 0 {
		acfg.Het.Seed = spec.Seed ^ 0x686574
	}
	if spec.ChurnFraction > 0 {
		payload := 4 * nodes[0].Model().ParamCount()
		horizon := cfg.NominalRoundSec(w.Opts.LocalSteps, payload, w.Degree) * float64(rounds)
		acfg.Churn = simulation.GenerateChurn(
			w.Nodes, spec.ChurnFraction, 0.05*horizon, 0.35*horizon, 0.1*horizon, spec.Seed)
	}
	eng := &simulation.AsyncEngine{Nodes: nodes, Topology: provider, TestSet: w.Dataset, Config: acfg}
	return eng.Run()
}
