// Package simulation drives decentralized training rounds over a topology,
// collecting the metrics the paper reports: per-round train loss, test
// accuracy/loss averaged over nodes, cumulative bytes split into model versus
// metadata, and a byte-driven simulated wall clock (compute + bandwidth +
// latency) standing in for the paper's cluster timings.
package simulation

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/vec"
)

// Config controls a run.
type Config struct {
	Rounds int
	// EvalEvery evaluates test metrics every k rounds (default 10; the final
	// round is always evaluated).
	EvalEvery int
	// EvalNodes caps how many nodes are evaluated (0 = all). Test accuracy is
	// the mean over evaluated nodes, as in the paper. The capped subset is a
	// seeded uniform sample (fixed for the run, drawn from EvalSeed) — it used
	// to be the first k nodes, which under churn and heterogeneity
	// systematically favored low-index nodes.
	EvalNodes int
	// EvalSample, when > 0 and below the node count, switches evaluation to a
	// seeded rotating subset of that many nodes per eval row: each row scores
	// one window of a per-cycle random permutation, so every node is visited
	// within ceil(n/EvalSample) (×EvalRotate) eval rows. Deterministic from
	// EvalSeed + the row's round — parallelism never changes the subset. 0
	// (the default) keeps exact all-node evaluation. Takes precedence over
	// EvalNodes.
	EvalSample int
	// EvalRotate slows the rotation: the sampling window advances every
	// EvalRotate eval rows (default 1 = advance each row). Larger values
	// re-score the same subset across consecutive rows, which smooths the
	// series at the cost of a longer full-fleet visit cadence.
	EvalRotate int
	// EvalSeed seeds the rotating-sample permutations and the EvalNodes cap
	// subset (typically the run seed).
	EvalSeed uint64
	// EvalBatch is the evaluation batch size (default 32).
	EvalBatch int
	// EvalMaxSamples caps test samples per node evaluation (0 = all).
	EvalMaxSamples int
	// TargetAccuracy, if > 0, stops the run once mean test accuracy reaches
	// it (the paper's Figure 5/6 protocol).
	TargetAccuracy float64
	// Parallelism bounds concurrent node execution (default NumCPU).
	Parallelism int

	// Simulated time model (Figure 6's wall-clock axis).
	// BandwidthBytesPerSec is each node's uplink (default 12.5 MB/s ~ 100 Mbps).
	BandwidthBytesPerSec float64
	// ComputeSecPerStep is the time of one local SGD step (default 5 ms).
	ComputeSecPerStep float64
	// LatencySec is the per-round communication latency (default 10 ms).
	LatencySec float64

	// Failure injection (extension experiments). Partial-sharing averaging
	// tolerates both: missing senders simply drop out of the per-coefficient
	// weight normalization. CHOCO's error-feedback replicas, by contrast,
	// silently diverge — the behaviour behind the paper's remark that JWINS
	// is "flexible to nodes leaving and joining".
	//
	// DropProb drops each point-to-point message independently.
	DropProb float64
	// OfflineProb takes a node fully offline for a round (no training, no
	// sending; it keeps its model and rejoins next round).
	OfflineProb float64
	// FaultSeed seeds the drop/offline decisions (default derived from 1).
	FaultSeed uint64

	// noDecodeCache runs without the fleet-shared decoded-payload cache, so
	// every recipient decodes its own copy. The cache never changes results;
	// this switch exists only for the in-package differential tests.
	noDecodeCache bool
}

func (c *Config) setDefaults() {
	if c.EvalEvery <= 0 {
		c.EvalEvery = 10
	}
	if c.EvalBatch <= 0 {
		c.EvalBatch = 32
	}
	if c.EvalRotate <= 0 {
		c.EvalRotate = 1
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.NumCPU()
	}
	if c.BandwidthBytesPerSec <= 0 {
		c.BandwidthBytesPerSec = 12.5e6
	}
	if c.ComputeSecPerStep <= 0 {
		c.ComputeSecPerStep = 5e-3
	}
	if c.LatencySec <= 0 {
		c.LatencySec = 10e-3
	}
}

// RoundMetrics is one row of the result series.
type RoundMetrics struct {
	Round     int
	TrainLoss float64
	// TestLoss/TestAcc are NaN on rounds without evaluation.
	TestLoss float64
	TestAcc  float64
	// Cumulative bytes sent by all nodes (payload × receivers + framing).
	CumTotalBytes int64
	CumModelBytes int64
	CumMetaBytes  int64
	// SimTime is the simulated elapsed seconds after this round.
	SimTime float64
	// MeanAlpha is the mean sharing fraction sampled this round (JWINS only,
	// NaN otherwise) — the Figure 3 series.
	MeanAlpha float64
	// StaleMean/StaleMax/StaleP95 summarize the iteration lag (staleness) of
	// payloads merged by this iteration's aggregations: per merged payload,
	// lag = aggregator's iteration - payload's iteration, clamped at zero.
	// Identically 0 under the synchronous engine and the async local barrier
	// (every aggregation consumes current-iteration payloads); nonzero under
	// gossip and for rejoining nodes that merge cached broadcasts.
	StaleMean float64
	StaleMax  float64
	StaleP95  float64
	// EffNeighbors is the mean number of payloads actually merged per
	// aggregation at this iteration; DropRate is the fraction of expected
	// live-neighbor payloads that had not delivered the current iteration
	// when the aggregation fired (0 under the full barrier; the deadline
	// policy's straggler drops and gossip/bounded-staleness misses land
	// here). Async engine only.
	EffNeighbors float64
	DropRate     float64
	// Epoch is the topology epoch active when this row was emitted;
	// SpectralGap (1 - SLEM of the live mixing matrix) and NeighborTurnover
	// (fraction of that epoch's live edges absent from the previous epoch)
	// describe that epoch's mixing. Filled by the async engine; the
	// synchronous engine leaves them zero.
	Epoch            int
	SpectralGap      float64
	NeighborTurnover float64
}

// Result aggregates a full run.
type Result struct {
	Rounds []RoundMetrics
	// FinalAccuracy is the last evaluated accuracy.
	FinalAccuracy float64
	// FinalLoss is the last evaluated test loss.
	FinalLoss float64
	// RoundsToTarget is the first round whose evaluation reached
	// TargetAccuracy, or -1.
	RoundsToTarget int
	// BytesToTarget is the cumulative byte count at that round, or the total.
	BytesToTarget int64
	// TimeToTarget is the simulated time at that round, or the total.
	TimeToTarget float64
	TotalBytes   int64
	ModelBytes   int64
	MetaBytes    int64
	SimTime      float64
	// StaleMean/StaleMax/StaleP95 summarize payload staleness over every
	// aggregation of the run (see RoundMetrics).
	StaleMean float64
	StaleMax  float64
	StaleP95  float64
	// EffNeighborsMean is the mean merged-payload count per aggregation over
	// the run; DropRate the late fraction of expected payloads; LateDrops
	// the total count of live neighbors missing at aggregation time (see
	// RoundMetrics.EffNeighbors/DropRate). Async engine only.
	EffNeighborsMean float64
	DropRate         float64
	LateDrops        int64
	// Epochs counts the topology epochs entered (>= 1 for async runs: the
	// initial graph is epoch 0). SpectralGapMean/Min average and bound the
	// per-epoch spectral gap of the live mixing matrix; TurnoverMean is the
	// mean per-rotation neighbor turnover (0 when the topology never
	// rotates). Async engine only.
	Epochs          int
	SpectralGapMean float64
	SpectralGapMin  float64
	TurnoverMean    float64
	// Telemetry is the end-of-run metrics snapshot when AsyncConfig.Telemetry
	// was set (nil otherwise). Observational only: values like the speculation
	// hit rate may differ across parallelism levels even though every other
	// Result field is bit-identical, so determinism comparisons skip it.
	Telemetry *metrics.Snapshot
}

// Engine runs one experiment in synchronous lockstep rounds. Like the
// AsyncEngine, it decodes each broadcast payload once: every run attaches a
// fleet-shared core.DecodeCache, and the recipients of a payload share its
// decoded vector. Direct delivery hands every recipient the same slice, so
// the cache hits for all but the first; a Mesh delivers copies, which only
// miss.
type Engine struct {
	Nodes    []core.Node
	Topology topology.Provider
	TestSet  *datasets.Dataset
	Config   Config

	// Mesh optionally routes payloads through a transport (byte accounting
	// then cross-checks the mesh's own counters). Nil uses direct delivery.
	Mesh transport.Mesh

	// OnRound, if set, is called after every round with that round's metrics.
	OnRound func(RoundMetrics)
}

// Run executes the configured number of rounds (or stops at the target
// accuracy) and returns the collected metrics.
func (e *Engine) Run() (*Result, error) {
	cfg := e.Config
	cfg.setDefaults()
	n := len(e.Nodes)
	if n == 0 {
		return nil, fmt.Errorf("simulation: no nodes")
	}
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("simulation: rounds must be positive")
	}

	attachDecodeCache(e.Nodes, cfg.noDecodeCache)
	res := &Result{RoundsToTarget: -1}
	var ledger byteLedger
	simTime := 0.0

	pool := newComputePool(cfg.Parallelism)
	defer pool.close()

	payloads := make([][]byte, n)
	breakdowns := make([]codec.ByteBreakdown, n)
	losses := make([]float64, n)
	var faultRNG *vec.RNG
	if cfg.DropProb > 0 || cfg.OfflineProb > 0 {
		faultRNG = vec.NewRNG(cfg.FaultSeed ^ 0xfa017)
	}
	offline := make([]bool, n)
	sampler := newEvalSampler(n, cfg)

	for round := 0; round < cfg.Rounds; round++ {
		graph, weights := e.Topology.Round(round)
		if graph.N != n {
			return nil, fmt.Errorf("simulation: topology has %d nodes, engine has %d", graph.N, n)
		}

		// Failure injection: decide who sits this round out.
		for i := range offline {
			offline[i] = faultRNG != nil && cfg.OfflineProb > 0 && faultRNG.Float64() < cfg.OfflineProb
		}

		// Phase 1+2: local training then payload construction, per node.
		if err := pool.forEach(n, func(i int) error {
			if offline[i] {
				losses[i] = math.NaN()
				payloads[i] = nil
				breakdowns[i] = codec.ByteBreakdown{}
				return nil
			}
			loss, p, bd, err := trainShare(e.Nodes[i], round)
			if err != nil {
				return fmt.Errorf("node %d share: %w", i, err)
			}
			losses[i], payloads[i], breakdowns[i] = loss, p, bd
			return nil
		}); err != nil {
			return nil, err
		}

		// Phase 3: delivery along topology edges + byte accounting.
		inbox := make([]map[int][]byte, n)
		for i := 0; i < n; i++ {
			inbox[i] = make(map[int][]byte, graph.Degree(i))
		}
		maxNodeBytes := int64(0)
		expect := make([]int, n) // messages each node expects via the mesh
		for i := 0; i < n; i++ {
			if offline[i] {
				continue
			}
			var sentTo int64
			for _, j := range graph.Neighbors(i) {
				if offline[j] {
					continue
				}
				sentTo++
				if faultRNG != nil && cfg.DropProb > 0 && faultRNG.Float64() < cfg.DropProb {
					continue // sender pays for the bytes; receiver never sees them
				}
				if e.Mesh != nil {
					// The synchronous schedule delivers within the round, so
					// both timestamps carry the round clock.
					if err := e.Mesh.Send(transport.Message{
						From: i, To: j, Round: round, Payload: payloads[i],
						SentAt: simTime, ArriveAt: simTime,
					}); err != nil {
						return nil, fmt.Errorf("simulation: send %d->%d: %w", i, j, err)
					}
					expect[j]++
				} else {
					inbox[j][i] = payloads[i]
				}
			}
			sent := ledger.addSend(breakdowns[i], len(payloads[i]), sentTo)
			if sent > maxNodeBytes {
				maxNodeBytes = sent
			}
		}
		if e.Mesh != nil {
			for j := 0; j < n; j++ {
				for k := 0; k < expect[j]; k++ {
					msg, err := e.Mesh.Recv(j)
					if err != nil {
						return nil, fmt.Errorf("simulation: recv for %d: %w", j, err)
					}
					inbox[j][msg.From] = msg.Payload
				}
			}
		}

		// Phase 4: aggregation.
		if err := pool.forEach(n, func(i int) error {
			if offline[i] {
				return nil
			}
			if err := e.Nodes[i].Aggregate(round, weights[i], inbox[i]); err != nil {
				return fmt.Errorf("node %d aggregate: %w", i, err)
			}
			return nil
		}); err != nil {
			return nil, err
		}

		// Simulated clock: compute is parallel across nodes; the round's
		// communication is bounded by the busiest uplink.
		stepTime := float64(localSteps(e.Nodes[0])) * cfg.ComputeSecPerStep
		simTime += stepTime + float64(maxNodeBytes)/cfg.BandwidthBytesPerSec + cfg.LatencySec

		// Sampled runs reuse the row's eval subset for the alpha summary,
		// keeping row emission O(sample).
		subset := sampler.subsetFor(round)
		rm := RoundMetrics{
			Round:         round,
			TrainLoss:     mean(losses),
			TestLoss:      math.NaN(),
			TestAcc:       math.NaN(),
			CumTotalBytes: ledger.total,
			CumModelBytes: ledger.model,
			CumMetaBytes:  ledger.meta,
			SimTime:       simTime,
			MeanAlpha:     meanAlphaOver(e.Nodes, subset),
		}

		if round%cfg.EvalEvery == cfg.EvalEvery-1 || round == cfg.Rounds-1 {
			loss, acc := evaluateNodesOn(pool, e.Nodes, e.TestSet, cfg, subset, nil)
			rm.TestLoss, rm.TestAcc = loss, acc
			res.FinalAccuracy, res.FinalLoss = acc, loss
			if cfg.TargetAccuracy > 0 && acc >= cfg.TargetAccuracy && res.RoundsToTarget < 0 {
				res.RoundsToTarget = round + 1
				res.BytesToTarget = ledger.total
				res.TimeToTarget = simTime
			}
		}
		res.Rounds = append(res.Rounds, rm)
		if e.OnRound != nil {
			e.OnRound(rm)
		}
		if cfg.TargetAccuracy > 0 && res.RoundsToTarget >= 0 {
			break
		}
	}
	res.TotalBytes, res.ModelBytes, res.MetaBytes = ledger.total, ledger.model, ledger.meta
	res.SimTime = simTime
	if res.RoundsToTarget < 0 {
		res.BytesToTarget = ledger.total
		res.TimeToTarget = simTime
	}
	return res, nil
}

// Evaluate returns mean test loss and accuracy over the evaluated nodes.
func (e *Engine) Evaluate(cfg Config) (loss, acc float64) {
	cfg.setDefaults()
	return evaluateNodes(e.Nodes, e.TestSet, cfg)
}
