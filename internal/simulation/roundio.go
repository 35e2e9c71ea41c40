// roundio.go is the I/O layer shared by the synchronous round engine and the
// event-driven async scheduler: per-node train+share execution, cumulative
// byte accounting, and fleet evaluation. Both engines express their schedules
// in terms of these primitives so that byte ledgers and metrics stay
// comparable across execution modes; both fan compute out on the worker pool
// in pool.go.
package simulation

import (
	"math"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/transport"
	"repro/internal/vec"
)

// evalSeedSalt decorrelates evaluation sampling from the other consumers of
// the run seed ("eval").
const evalSeedSalt = 0x6576616c

// byteLedger accumulates the cumulative model/metadata byte split. Senders
// pay for every neighbor copy (payload + framing), mirroring the paper's
// per-node uplink accounting.
type byteLedger struct {
	total, model, meta int64
}

// addSend charges one sender for `receivers` copies of a payload and returns
// the bytes charged.
func (l *byteLedger) addSend(bd codec.ByteBreakdown, payloadLen int, receivers int64) int64 {
	sent := receivers * int64(payloadLen+transport.FrameOverhead)
	l.total += sent
	l.model += receivers * int64(bd.Model)
	l.meta += receivers * int64(bd.Meta+transport.FrameOverhead)
	return sent
}

// attachDecodeCache wires one fresh fleet-shared core.DecodeCache into every
// node that supports it, so each broadcast payload is entropy-decoded once
// instead of once per recipient, and returns it. Both engines call it at the
// start of every run: a reused fleet never serves a previous run's buffers.
// With off set it detaches instead (SetDecodeCache(nil)) and returns nil, so
// a fleet that ran with a cache before cannot keep decoding through it. The
// cache is keyed on payload identity, so it never changes results.
func attachDecodeCache(nodes []core.Node, off bool) *core.DecodeCache {
	var c *core.DecodeCache
	if !off {
		c = &core.DecodeCache{}
	}
	for _, nd := range nodes {
		if u, ok := nd.(core.DecodeCacheUser); ok {
			u.SetDecodeCache(c)
		}
	}
	return c
}

// trainShare runs one node's local-training phase and builds its broadcast
// payload for the given round/iteration.
func trainShare(nd core.Node, round int) (loss float64, payload []byte, bd codec.ByteBreakdown, err error) {
	loss = nd.LocalTrain()
	payload, bd, err = nd.Share(round)
	return loss, payload, bd, err
}

// evalSampler produces the rotating subsets of sampled evaluation
// (Config.EvalSample). Rows score successive windows of a per-cycle random
// permutation: window w of cycle c covers perm_c[w*s : (w+1)*s], the window
// advances every EvalRotate eval rows, and a fresh seeded permutation is
// drawn once every ceil(n/s) windows — so every node is visited within one
// cycle and the visit order reshuffles across cycles. Subsets depend only on
// the config and the row's round, never on execution order, which keeps
// sampled runs bit-identical across parallelism levels. The sampler caches
// the cycle permutation so per-row subset construction is O(EvalSample).
type evalSampler struct {
	n      int
	cfg    Config
	cycle  int
	perm   []int
	subset []int
}

// newEvalSampler returns nil (sampling off) unless cfg.EvalSample is set and
// actually below the fleet size.
func newEvalSampler(n int, cfg Config) *evalSampler {
	if cfg.EvalSample <= 0 || cfg.EvalSample >= n {
		return nil
	}
	return &evalSampler{n: n, cfg: cfg, cycle: -1}
}

// subsetFor returns the sampled node indices for the row emitted at round, or
// nil when sampling is off (nil receiver). Valid for every round — alpha
// summaries reuse the subset on non-eval rows. The returned slice is reused
// by the next call; callers must not retain it.
func (s *evalSampler) subsetFor(round int) []int {
	if s == nil {
		return nil
	}
	sz := s.cfg.EvalSample
	windows := (s.n + sz - 1) / sz
	// Step by the eval ordinal (round/EvalEvery), not the raw round: eval
	// rows land every EvalEvery rounds, and stepping by round would skip
	// windows between them, breaking the coverage bound.
	step := (round / s.cfg.EvalEvery) / s.cfg.EvalRotate
	cycle, win := step/windows, step%windows
	if cycle != s.cycle {
		rng := vec.NewRNG(s.cfg.EvalSeed ^ evalSeedSalt ^ uint64(cycle)*0x9e3779b97f4a7c15)
		s.perm = rng.Perm(s.n)
		s.cycle = cycle
	}
	if s.subset == nil {
		s.subset = make([]int, sz)
	}
	for i := range s.subset {
		// The last window wraps to the permutation's head; s < n keeps the
		// wrapped entries distinct from the window's own.
		s.subset[i] = s.perm[(win*sz+i)%s.n]
	}
	return s.subset
}

// evaluateNodesOn returns mean test loss and accuracy fanned out on the given
// pool. A non-nil subset evaluates exactly those node indices (sampled
// rotating evaluation); subset entries outside live (when non-nil) contribute
// NaN and drop out of the mean, so offline nodes don't skew sampled rows. A
// nil subset is exact evaluation over every node — or, when cfg.EvalNodes
// caps it, over a seeded uniform k-subset fixed for the run; exact paths
// ignore live, preserving the historical behavior of scoring offline nodes'
// retained models.
func evaluateNodesOn(p *computePool, nodes []core.Node, testSet *datasets.Dataset, cfg Config, subset []int, live []bool) (loss, acc float64) {
	if subset == nil {
		live = nil
		n := len(nodes)
		if cfg.EvalNodes > 0 && cfg.EvalNodes < n {
			rng := vec.NewRNG(cfg.EvalSeed ^ evalSeedSalt)
			subset = rng.SampleWithoutReplacement(n, cfg.EvalNodes)
		}
	}
	k := len(nodes)
	if subset != nil {
		k = len(subset)
	}
	lossSum := make([]float64, k)
	accSum := make([]float64, k)
	_ = p.forEach(k, func(i int) error {
		j := i
		if subset != nil {
			j = subset[i]
		}
		if live != nil && !live[j] {
			lossSum[i], accSum[i] = math.NaN(), math.NaN()
			return nil
		}
		l, a := datasets.Evaluate(testSet, nodes[j].Model(), cfg.EvalBatch, cfg.EvalMaxSamples)
		lossSum[i], accSum[i] = l, a
		return nil
	})
	return mean(lossSum), mean(accSum)
}

// evaluateNodes is evaluateNodesOn with a transient pool, for callers outside
// an engine run (sampled configs score the round-0 subset).
func evaluateNodes(nodes []core.Node, testSet *datasets.Dataset, cfg Config) (loss, acc float64) {
	p := newComputePool(cfg.Parallelism)
	defer p.close()
	return evaluateNodesOn(p, nodes, testSet, cfg, newEvalSampler(len(nodes), cfg).subsetFor(0), nil)
}

// meanAlphaOf averages LastAlpha over JWINS nodes (NaN if none) — the
// Figure 3 sharing-fraction series.
func meanAlphaOf(nodes []core.Node) float64 {
	var sum float64
	count := 0
	for _, nd := range nodes {
		if j, ok := nd.(*core.JWINSNode); ok {
			sum += j.LastAlpha
			count++
		}
	}
	if count == 0 {
		return math.NaN()
	}
	return sum / float64(count)
}

// meanAlphaOver is meanAlphaOf restricted to the sampled subset (all nodes
// when subset is nil), keeping row emission O(sample) at 10k nodes.
func meanAlphaOver(nodes []core.Node, subset []int) float64 {
	if subset == nil {
		return meanAlphaOf(nodes)
	}
	var sum float64
	count := 0
	for _, i := range subset {
		if j, ok := nodes[i].(*core.JWINSNode); ok {
			sum += j.LastAlpha
			count++
		}
	}
	if count == 0 {
		return math.NaN()
	}
	return sum / float64(count)
}

// meanOverIdx averages the non-NaN entries of x at the given indices — the
// async engine's sampled-alpha path over its committed per-node alphas.
func meanOverIdx(x []float64, idx []int) float64 {
	var s float64
	count := 0
	for _, i := range idx {
		if math.IsNaN(x[i]) {
			continue
		}
		s += x[i]
		count++
	}
	if count == 0 {
		return math.NaN()
	}
	return s / float64(count)
}

// mean averages the non-NaN entries (offline nodes report NaN losses).
func mean(x []float64) float64 {
	var s float64
	count := 0
	for _, v := range x {
		if math.IsNaN(v) {
			continue
		}
		s += v
		count++
	}
	if count == 0 {
		return math.NaN()
	}
	return s / float64(count)
}

// localSteps peeks the per-round local step count for the time model.
func localSteps(n core.Node) int {
	type stepper interface{ LocalStepCount() int }
	if s, ok := n.(stepper); ok {
		return s.LocalStepCount()
	}
	return 1
}
