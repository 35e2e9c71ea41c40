// async.go is the event-driven counterpart to the synchronous round engine:
// a single-threaded discrete-event scheduler in which every node carries its
// own compute/bandwidth/latency profile, trains and communicates on its own
// clock, and can leave and rejoin mid-run. It reuses the roundio layer
// (train+share, byte ledger, evaluation) so metrics are directly comparable
// with Engine, and reports the same Result/RoundMetrics series, with rows
// aligned on per-node iteration numbers instead of global rounds.
//
// Aggregation is governed by a pluggable AggregationPolicy (see policy.go).
// Four policies are supported:
//
//   - local barrier (default): a node aggregates iteration k once every live
//     neighbor's iteration-k payload has arrived (or is known dropped, or the
//     neighbor left). With homogeneous profiles and no churn this reproduces
//     the synchronous schedule exactly — the degenerate-case parity test —
//     while heterogeneous profiles turn slow nodes into stragglers that stall
//     only their own neighborhood, not the whole graph.
//
//   - gossip: a node aggregates immediately after broadcasting, using the
//     freshest payload it holds from each live neighbor. Fast nodes run
//     ahead; stale models mix in asynchronously with unbounded staleness.
//
//   - bounded staleness: a node waits until at least k live neighbors
//     delivered the current iteration, or every live neighbor is within τ
//     iterations — the semi-async middle ground, with an adaptive mode that
//     retunes τ at each topology-epoch boundary from the observed lag p95.
//
//   - straggler-dropping deadline: a barrier with a simulated-time deadline
//     derived from the node's own nominal round length; late neighbors are
//     dropped from the merge and counted in the drop-rate metrics. Deadline
//     events are recorded in traces and consumed verbatim on replay, so the
//     record→replay byte-parity guarantee holds for every policy.
//
// Churn is a seeded trace of leave/join events. A leaver keeps its model; on
// rejoin its iteration counter fast-forwards to the run's emitted-row floor,
// so it resumes at the current global position with stale parameters — the
// scenario behind the paper's claim that partial-sharing averaging is
// "flexible to nodes leaving and joining" while CHOCO's error-feedback
// replicas desynchronize.
//
// The communication graph is driven through topology.LiveProvider. A plain
// Provider is pinned to its round-0 graph and only filtered for liveness
// (the static setting); a topology.EpochProvider additionally rotates the
// graph on simulated-time epochs: the scheduler processes an EventEpoch at
// each boundary, live nodes push their cached broadcast over every fresh
// edge (the state sync that keeps barriers deadlock-free across rotations),
// stale per-edge payload buffers are pruned and pooled, and the new epoch's
// mixing quality (spectral gap, neighbor turnover) lands in the emitted
// rows. Epoch boundaries are recorded in traces and replayed from them, so
// rotated runs keep the record→replay byte-parity guarantee.
package simulation

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/vec"
)

// Typed configuration errors; match with errors.Is.
var (
	// ErrUnsupportedTopology rejects provider/engine combinations that would
	// silently run a different experiment than requested.
	ErrUnsupportedTopology = errors.New("simulation: unsupported topology for the async engine")
	// ErrReplayConfig rejects a replay whose engine configuration cannot
	// reproduce the recorded schedule (e.g. a mismatched epoch length).
	ErrReplayConfig = errors.New("simulation: replay configuration mismatch")
)

// NodeProfile is one node's hardware profile in the simulated-time model.
type NodeProfile struct {
	// ComputeSecPerStep is the duration of one local SGD step.
	ComputeSecPerStep float64
	// BandwidthBytesPerSec is the node's uplink; neighbor copies serialize
	// through it.
	BandwidthBytesPerSec float64
	// LatencySec is the one-way propagation delay added to every message.
	LatencySec float64
}

// Heterogeneity draws per-node profiles around the base Config values using
// independent lognormal multipliers (median 1), the standard straggler model:
// most nodes sit near the base, a heavy tail is markedly slower.
type Heterogeneity struct {
	// ComputeSpread is the lognormal sigma for compute time (0 = homogeneous).
	ComputeSpread float64
	// BandwidthSpread is the lognormal sigma for uplink bandwidth.
	BandwidthSpread float64
	// LatencySpread is the lognormal sigma for latency.
	LatencySpread float64
	// Seed drives the draws (default 0x686574, "het").
	Seed uint64
}

func (h Heterogeneity) zero() bool {
	return h.ComputeSpread == 0 && h.BandwidthSpread == 0 && h.LatencySpread == 0
}

// SampleProfiles draws n node profiles around base's time model. With a
// zero-valued Heterogeneity every profile equals the base exactly.
func SampleProfiles(n int, base Config, het Heterogeneity) []NodeProfile {
	base.setDefaults()
	seed := het.Seed
	if seed == 0 {
		seed = 0x686574
	}
	rng := vec.NewRNG(seed)
	out := make([]NodeProfile, n)
	for i := range out {
		out[i] = NodeProfile{
			ComputeSecPerStep:    base.ComputeSecPerStep * logNormal(rng, het.ComputeSpread),
			BandwidthBytesPerSec: base.BandwidthBytesPerSec / logNormal(rng, het.BandwidthSpread),
			LatencySec:           base.LatencySec * logNormal(rng, het.LatencySpread),
		}
	}
	return out
}

// logNormal returns exp(sigma * N(0,1)), drawing exactly one deviate even
// when sigma is zero so profiles stay stable as spreads are toggled.
func logNormal(rng *vec.RNG, sigma float64) float64 {
	z := rng.NormFloat64()
	if sigma == 0 {
		return 1
	}
	return math.Exp(sigma * z)
}

// NominalRoundSec estimates one synchronous round's duration under c's time
// model: local compute, one uplink's serialization of degree payload copies,
// and latency. Callers use it to place churn traces in absolute simulated
// time without running the schedule first.
func (c Config) NominalRoundSec(steps, payloadBytes, degree int) float64 {
	c.setDefaults()
	return float64(steps)*c.ComputeSecPerStep +
		float64(degree*(payloadBytes+transport.FrameOverhead))/c.BandwidthBytesPerSec +
		c.LatencySec
}

// ChurnEvent is one entry of a churn trace.
type ChurnEvent struct {
	// Time is the simulated timestamp at which the change applies.
	Time float64
	// Node is the affected node.
	Node int
	// Join is true for a rejoin, false for a departure.
	Join bool
}

// GenerateChurn builds a seeded trace in which fraction of the n nodes leave
// once at a uniform time in [start, end) and rejoin after a downtime of
// meanDown*(0.5+U[0,1)). Rejoin times may exceed end; the run keeps
// processing churn until every node's iteration budget is met.
func GenerateChurn(n int, fraction, start, end, meanDown float64, seed uint64) []ChurnEvent {
	k := int(fraction*float64(n) + 0.5)
	if k <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	rng := vec.NewRNG(seed ^ 0x636875726e) // "churn"
	victims := rng.SampleWithoutReplacement(n, k)
	out := make([]ChurnEvent, 0, 2*k)
	for _, node := range victims {
		leave := start + rng.Float64()*(end-start)
		down := meanDown * (0.5 + rng.Float64())
		out = append(out,
			ChurnEvent{Time: leave, Node: node, Join: false},
			ChurnEvent{Time: leave + down, Node: node, Join: true},
		)
	}
	return out
}

// AsyncConfig extends the base Config with the event-driven knobs. The
// embedded Config's Rounds field becomes the per-node iteration budget;
// OfflineProb is ignored (churn traces subsume it), DropProb still drops
// individual messages in flight.
type AsyncConfig struct {
	Config

	// Profiles fixes per-node hardware profiles. Nil samples them from Het
	// around the base Config time model.
	Profiles []NodeProfile
	// Het is the heterogeneity distribution used when Profiles is nil.
	Het Heterogeneity
	// Churn is the leave/join trace (see GenerateChurn).
	Churn []ChurnEvent
	// Gossip switches from the local-barrier policy to immediate freshest-
	// payload aggregation. Shorthand for Policy: GossipPolicy{}; setting both
	// Gossip and Policy is a configuration error.
	Gossip bool
	// Policy selects the aggregation policy (see policy.go). Nil defaults to
	// BarrierPolicy (or GossipPolicy when Gossip is set).
	Policy AggregationPolicy
	// MixingEvery samples the spectral-gap computation, which is O(n·d) per
	// power iteration and would otherwise sit on the 1024-node critical path
	// at every rotation: 0 or 1 computes the gap at every epoch boundary,
	// k > 1 only at epochs whose index is a multiple of k, negative never.
	// Skipped epochs report NaN in the rows' SpectralGap column; the Result
	// aggregates cover sampled epochs only. Neighbor turnover (O(edges)) is
	// always reported.
	MixingEvery int
	// ShareBatch batches the speculative train+share dispatches of
	// plan-sharing JWINS nodes: up to ShareBatch queued dispatches become one
	// pooled task running a single core.SharePipeline pass (one cache-blocked
	// DWT sweep over all members' deltas instead of per-node cascades). 0 or
	// 1 runs the per-node reference path. Only compute is batched — each
	// member's result still commits at its own train-done event, so results
	// are bit-identical either way (see sharebatch.go).
	ShareBatch int
	// AggregateBatch is ShareBatch's mirror for the aggregate half: up to
	// AggregateBatch pool-dispatched aggregates of plan-sharing JWINS nodes
	// become one core.AggregatePipeline pass (one decode-or-cache-hit sweep,
	// one batched inverse DWT, one batched accumulator forward). 0 or 1 runs
	// the per-node reference path. Only compute is batched — staleness
	// accounting, trace records, inbox cleanup, and iteration advances stay
	// at the aggregate event, so results are bit-identical either way (see
	// aggbatch.go).
	AggregateBatch int
	// ShareBatchForce overrides the single-core gate on both batch knobs:
	// with GOMAXPROCS=1 deferred dispatch cannot overlap anything and costs
	// a measured 1–5% wall, so ShareBatch/AggregateBatch auto-disable there
	// unless this is set (differential tests and benchmarks set it so the
	// batched code paths run regardless of host shape).
	ShareBatchForce bool
	// OnEvent, if set, observes every processed event in order — the
	// deterministic event trace.
	OnEvent func(Event)

	// Telemetry, if set, streams runtime metrics (queue depth, barrier wait,
	// speculation hit rate, byte counters, ...) into its registry as the run
	// executes, and leaves a point-in-time snapshot in Result.Telemetry.
	// Strictly observational — the schedule is bit-identical with or without
	// it — and allocation-free on the hot path (see telemetry.go).
	Telemetry *Telemetry

	// Record, if set, captures the full executed schedule as trace events:
	// the authoritative train-done/arrival/leave/join sequence plus derived
	// send records (byte breakdowns) and aggregate records (staleness lags).
	// An in-memory trace.Recorder keeps the schedule for immediate replay; a
	// trace.StreamRecorder writes it to disk incrementally, the only option
	// whose memory stays bounded on 1024-node schedules.
	Record trace.Sink

	// Replay, if set, makes a recorded trace the authoritative schedule:
	// train-done times, arrival times, message drops, and leave/join churn
	// all come from the recording. Profiles/Het/Churn/DropProb stop
	// influencing the schedule, so a run replays deterministically — or a
	// wall-clock cluster trace re-executes under the simulator's ledger. A
	// Replayer is consumed by the run; build a fresh one per replay.
	Replay *trace.Replayer
}

// AsyncEngine runs one experiment under the event-driven scheduler.
type AsyncEngine struct {
	Nodes    []core.Node
	Topology topology.Provider
	TestSet  *datasets.Dataset
	Config   AsyncConfig

	// Mesh optionally routes payloads through a transport, as in Engine.
	// Messages carry SentAt/ArriveAt simulated timestamps and stay queued
	// from broadcast time until their simulated delivery, so long-latency or
	// slow-uplink scenarios need a generously buffered mesh (see
	// transport.NewInMemoryBuffered).
	Mesh transport.Mesh

	// OnRound is called after each emitted iteration row.
	OnRound func(RoundMetrics)
}

// asyncNode is the scheduler's per-node state.
type asyncNode struct {
	live bool
	gen  int // bumped on leave/join; stale train-done events are discarded
	iter int // completed aggregations
	// waiting is true while the node has broadcast iteration `iter` and is
	// blocked on the aggregation policy's readiness condition. waitStart is
	// the simulated time the wait began (telemetry's barrier-wait series).
	waiting   bool
	waitStart float64
	// deadlineFired marks that the node's straggler deadline for iteration
	// `iter` was processed while it was still waiting (DeadlinePolicy only);
	// cleared when the aggregation fires or the node churns.
	deadlineFired bool
	// got[j] is the highest iteration for which sender j's payload arrived
	// or was known dropped — the barrier bookkeeping.
	got map[int]int
	// inbox[j][k] buffers sender j's iteration-k payload. The barrier policy
	// consumes entries <= the aggregated iteration; gossip keeps only the
	// freshest entry per sender.
	inbox map[int]map[int][]byte
	// lastPayload/lastIter/lastBD cache the node's most recent broadcast so
	// a rejoining neighbor can pull current state (see onJoin).
	lastPayload []byte
	lastIter    int
	lastBD      codec.ByteBreakdown
}

// trainTask carries one speculatively dispatched train+share computation.
// The pool worker fills the result fields before fut completes; the event
// loop reads them only after waiting on fut at the train-done event.
type trainTask struct {
	fut     *future
	loss    float64
	payload []byte
	bd      codec.ByteBreakdown
}

// asyncRun is the mutable state of one AsyncEngine.Run.
type asyncRun struct {
	eng      *AsyncEngine
	cfg      AsyncConfig
	profiles []NodeProfile
	nodes    []asyncNode
	queue    eventQueue
	seq      int64
	now      float64
	ledger   byteLedger
	faultRNG *vec.RNG

	// Aggregation-policy state. policy is the resolved AggregationPolicy,
	// blocking its cached Blocking(); curTau is the live staleness bound
	// (BoundedStalenessPolicy — the adaptive mode retunes it at epoch
	// boundaries from the lag samples accumulated since epochLagStart).
	policy        AggregationPolicy
	blocking      bool
	curTau        int
	epochLagStart int

	// Topology state. topo serves the live-filtered graph of the current
	// epoch; epochSec > 0 (an EpochProvider) enables rotation, and epoch is
	// the index the last processed EventEpoch advanced to. replayEpochs
	// holds the recorded rotations not yet scheduled (replay runs schedule
	// them verbatim instead of deriving boundaries from epochSec).
	topo         topology.LiveProvider
	epoch        int
	epochSec     float64
	replayEpochs []trace.Event

	// Mixing instrumentation: the current epoch's spectral gap and neighbor
	// turnover (reported in every emitted row) plus run-level accumulators.
	// gapCount counts the epochs whose gap was actually computed (the
	// MixingEvery sample); curGap is NaN on skipped epochs.
	curGap      float64
	curTurnover float64
	gapSum      float64
	gapMin      float64
	gapCount    int
	turnSum     float64
	turnCount   int
	epochCount  int
	liveBuf     []bool               // scratch live mask for the spectral-gap restriction
	slem        topology.SLEMScratch // reused power-iteration buffers

	// boxPool recycles per-sender inbox maps freed when an epoch rotation
	// severs an edge (or a rejoin resets a node), bounding steady-state
	// allocation at 1024-node scale.
	boxPool []map[int][]byte
	// msgsPool recycles the per-aggregation payload maps. Maps are acquired
	// on the event loop and released by the pool worker once Aggregate has
	// consumed them, so the pool is mutex-guarded; map identity never affects
	// results (nodes sort senders before merging).
	msgsPool msgsPool
	// lagScratch is the reusable staleness-sample buffer of aggregate(); its
	// contents are copied out synchronously before the next aggregation.
	lagScratch []float64

	// Worker-pool state. tails[i] is node i's most recently submitted task
	// (its per-node chain: train and aggregate strictly alternate in program
	// order); pendTrain[i] is the speculatively dispatched train+share whose
	// train-done event has not been processed yet, pointing into the
	// trainTasks slab (one reusable slot per node: a slot is rewritten only
	// after its previous result was committed at the train-done event, or
	// after the final drain). alphas[i] is the cut-off
	// committed at node i's last processed train-done — row emission must not
	// read JWINSNode.LastAlpha directly, since a speculative Share may already
	// have overwritten it ahead of the serial schedule.
	pool       *computePool
	tails      []*future
	pendTrain  []*trainTask
	trainTasks []trainTask
	alphas     []float64
	isJWINS    []bool
	// churnPending[i] holds the simulated times of node i's not-yet-processed
	// leave/join events, ascending. Speculation is suppressed while a churn
	// event could fire before the speculated train-done commits.
	churnPending [][]float64

	// Share-batch state (cfg.ShareBatch >= 2): eligible speculative
	// dispatches are deferred into specQueue and flushed as grouped
	// SharePipeline tasks — when the queue reaches the batch size, once after
	// the schedule is seeded, and always before processing an event at or
	// after specDue (the earliest queued train-done time), which keeps every
	// commit point exactly where the serial schedule has it. See sharebatch.go.
	specQueue []specEntry
	specDue   float64
	ctxPool   batchCtxPool

	// Aggregate-batch state (cfg.AggregateBatch >= 2): eligible aggregates
	// (and the speculative train each would have dispatched) are deferred
	// into aggQueue and flushed as grouped AggregatePipeline tasks — when
	// the queue reaches the batch size, before processing any event at or
	// after aggDue (every queued node's next train-done time bounds it), at
	// the top of drain, and at onJoin. aggIdx[i] is node i's queue position
	// (-1 when not queued). See aggbatch.go.
	aggQueue []aggEntry
	aggIdx   []int
	aggDue   float64
	aggCtxs  aggCtxPool

	// dcache is the fleet-shared decoded-payload cache (nil when disabled):
	// each broadcast payload is entropy-decoded once, by its first
	// aggregating recipient, and served by identity to the rest.
	dcache *core.DecodeCache

	// per-iteration training-loss accumulators for row emission
	lossSum   []float64
	lossCount []int
	emitted   int
	res       *Result
	stop      bool

	// Row-floor counters: atIter[k] is the number of live nodes whose
	// completed iteration is k (clamped at Rounds), liveCount the number of
	// live nodes. Every live node sits at or above emitted, so the floor —
	// the lowest live iteration — is reached by stepping emitted past empty
	// slots: O(1) amortized per aggregate instead of a fleet scan.
	atIter    []int
	liveCount int
	// touched counts node rows visited by the scoped recheck and the floor
	// counters — instrumentation for the per-event complexity test.
	touched int

	// evalSamp drives sampled rotating evaluation (nil = exact); its subsets
	// depend only on config + row index, so rows stay parallelism-invariant.
	evalSamp *evalSampler

	// meshPending buffers mesh messages drained out of order, keyed by
	// receiver then sender (FIFO per sender).
	meshPending []map[int][]transport.Message

	// trace subsystem state: recorder hook, replay oracle, staleness and
	// policy accumulators, and the count of replay lookups that found no
	// recorded event (a nonzero count on a stalled replay means config
	// mismatch).
	rec          trace.Sink
	replay       *trace.Replayer
	stale        *staleTracker
	polTrack     *policyTracker
	replayMisses int

	// telemetry: tel is nil when disabled; telWait is the per-policy
	// barrier-wait histogram resolved once at setup so the hot path touches
	// only pre-registered atomics.
	tel     *Telemetry
	telWait *metrics.Histogram
}

// Run executes the event-driven schedule and returns the collected metrics.
func (e *AsyncEngine) Run() (*Result, error) {
	cfg := e.Config
	cfg.setDefaults()
	// Single-core gate: deferred batch dispatch only pays off when the pool
	// can overlap it (see gatedBatchWidth).
	gmp := runtime.GOMAXPROCS(0)
	cfg.ShareBatch = gatedBatchWidth(cfg.ShareBatch, cfg.ShareBatchForce, gmp)
	cfg.AggregateBatch = gatedBatchWidth(cfg.AggregateBatch, cfg.ShareBatchForce, gmp)
	n := len(e.Nodes)
	if n == 0 {
		return nil, fmt.Errorf("simulation: no nodes")
	}
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("simulation: rounds must be positive")
	}
	profiles := cfg.Profiles
	if profiles == nil {
		profiles = SampleProfiles(n, cfg.Config, cfg.Het)
	}
	if len(profiles) != n {
		return nil, fmt.Errorf("simulation: %d profiles for %d nodes", len(profiles), n)
	}
	policy := cfg.Policy
	if policy == nil {
		if cfg.Gossip {
			policy = GossipPolicy{}
		} else {
			policy = BarrierPolicy{}
		}
	} else if cfg.Gossip {
		return nil, fmt.Errorf("%w: both Gossip and Policy are set; use Policy alone", ErrPolicyConfig)
	}
	if err := policy.validate(); err != nil {
		return nil, err
	}

	r := &asyncRun{
		eng:          e,
		cfg:          cfg,
		profiles:     profiles,
		nodes:        make([]asyncNode, n),
		lossSum:      make([]float64, cfg.Rounds),
		lossCount:    make([]int, cfg.Rounds),
		atIter:       make([]int, cfg.Rounds+1),
		liveCount:    n,
		res:          &Result{RoundsToTarget: -1},
		rec:          cfg.Record,
		replay:       cfg.Replay,
		stale:        newStaleTracker(cfg.Rounds),
		polTrack:     newPolicyTracker(cfg.Rounds),
		policy:       policy,
		blocking:     policy.Blocking(),
		pool:         newComputePool(cfg.Parallelism),
		tails:        make([]*future, n),
		pendTrain:    make([]*trainTask, n),
		trainTasks:   make([]trainTask, n),
		alphas:       make([]float64, n),
		isJWINS:      make([]bool, n),
		churnPending: make([][]float64, n),
		specDue:      math.Inf(1),
		aggIdx:       make([]int, n),
		aggDue:       math.Inf(1),
		evalSamp:     newEvalSampler(n, cfg.Config),
	}
	for i := range r.aggIdx {
		r.aggIdx[i] = -1
	}
	r.atIter[0] = n
	r.dcache = attachDecodeCache(e.Nodes, cfg.noDecodeCache)
	if bp, ok := policy.(BoundedStalenessPolicy); ok {
		r.curTau = bp.Tau
	}
	if cfg.Telemetry != nil {
		r.tel = cfg.Telemetry
		r.telWait = r.tel.waitHistogram(policy.Name())
		r.pool.telPooled = r.tel.poolTasks
		r.pool.telInline = r.tel.poolInline
	}
	// Registered before any validation early-return: the pool's workers must
	// not outlive a failed Run.
	defer r.pool.close()
	switch tp := e.Topology.(type) {
	case *topology.EpochProvider:
		// The engine owns liveness for the duration of the run; a provider
		// reused across runs must start from the all-live state.
		tp.ResetLive()
		r.topo = tp
		r.epochSec = tp.EpochSec
	case *topology.Dynamic:
		// Dynamic is the synchronous engine's per-round re-randomizer; the
		// event-driven scheduler has no round clock, so pinning it at round 0
		// would silently run a static-graph experiment.
		return nil, fmt.Errorf("%w: per-round Dynamic has no round clock under the event-driven scheduler; wrap topology.NewSeededDynamic in a topology.EpochProvider", ErrUnsupportedTopology)
	default:
		r.topo = topology.NewMasked(e.Topology, n)
	}
	for i, nd := range e.Nodes {
		if _, ok := nd.(*core.JWINSNode); ok {
			r.isJWINS[i] = true
		} else {
			r.alphas[i] = math.NaN()
		}
	}
	if cfg.DropProb > 0 && r.replay == nil {
		// Under replay, drops come from the recorded arrivals instead.
		r.faultRNG = vec.NewRNG(cfg.FaultSeed ^ 0xfa017)
	}
	if r.replay != nil {
		if rn := r.replay.Header().Nodes; rn != n {
			return nil, fmt.Errorf("simulation: replay trace has %d nodes, engine has %d", rn, n)
		}
		if err := r.validateReplayEpochs(); err != nil {
			return nil, err
		}
		if err := r.validateReplayPolicy(); err != nil {
			return nil, err
		}
		if err := r.validateReplayEval(); err != nil {
			return nil, err
		}
	}
	if e.Mesh != nil {
		r.meshPending = make([]map[int][]transport.Message, n)
		for i := range r.meshPending {
			r.meshPending[i] = map[int][]transport.Message{}
		}
	}
	g, w0 := r.graph()
	if g.N != n {
		return nil, fmt.Errorf("simulation: topology has %d nodes, engine has %d", g.N, n)
	}
	// Epoch 0's mixing quality (static runs report it too; their gap is then
	// constant and their turnover identically zero). Sampling off leaves NaN.
	r.epochCount = 1
	if r.mixingSampled(0) {
		r.curGap = r.slem.SpectralGap(g, w0, nil)
		r.gapSum, r.gapMin, r.gapCount = r.curGap, r.curGap, 1
	} else {
		r.curGap, r.gapMin = math.NaN(), math.NaN()
	}
	for i := range r.nodes {
		r.nodes[i] = asyncNode{
			live:     true,
			got:      make(map[int]int, g.Degree(i)),
			inbox:    make(map[int]map[int][]byte, g.Degree(i)),
			lastIter: -1,
		}
	}
	// The per-node churn calendar must exist before the first scheduleTrain:
	// speculation safety checks it. Event push order stays as before (initial
	// trains first, then churn) so same-time tie-breaking is unchanged.
	if r.replay != nil {
		for _, ev := range r.replay.Churn() {
			r.churnPending[ev.Node] = append(r.churnPending[ev.Node], ev.Time)
		}
	} else {
		for _, ch := range cfg.Churn {
			if ch.Node < 0 || ch.Node >= n {
				return nil, fmt.Errorf("simulation: churn event for node %d, engine has %d nodes", ch.Node, n)
			}
			r.churnPending[ch.Node] = append(r.churnPending[ch.Node], ch.Time)
		}
	}
	for i := range r.churnPending {
		sort.Float64s(r.churnPending[i])
	}
	// Seed the schedule: every node starts training at t=0; churn arrives on
	// its own clock.
	for i := 0; i < n; i++ {
		r.scheduleTrain(i)
	}
	// Flush the partial seed batch so its compute overlaps the schedule from
	// the start instead of waiting for the event loop's first due check.
	r.flushSpec()
	if r.replay != nil {
		// The recorded leave/join sequence is the churn schedule.
		for _, ev := range r.replay.Churn() {
			kind := EventLeave
			if ev.Kind == trace.KindJoin {
				kind = EventJoin
			}
			r.push(Event{Time: ev.Time, Kind: kind, Node: ev.Node})
		}
	} else {
		for _, ch := range cfg.Churn {
			kind := EventLeave
			if ch.Join {
				kind = EventJoin
			}
			r.push(Event{Time: ch.Time, Kind: kind, Node: ch.Node})
		}
	}
	// Topology rotation: one boundary event outstanding at a time. Under
	// replay the recorded rotations are the schedule; otherwise the first
	// boundary lands one epoch length in, and each processed boundary pushes
	// the next.
	if r.replay != nil {
		r.replayEpochs = r.replay.Epochs()
		r.pushNextReplayEpoch()
	} else if r.epochSec > 0 {
		r.push(Event{Time: r.epochSec, Kind: EventEpoch, Iter: 1})
	}

	// The final drain is mandatory on every path out of the loop: in-flight
	// workers mutate node state, and the pool must not close under them.
	if err := r.eventLoop(); err != nil {
		r.drain() // surface the loop's error, not a downstream chain error
		return nil, err
	}
	if err := r.drain(); err != nil {
		return nil, err
	}

	if r.replay != nil && !r.stop && r.emitted < cfg.Rounds {
		return nil, fmt.Errorf("simulation: replay stalled at %d/%d rows (%d missed schedule lookups): trace does not match this run configuration",
			r.emitted, cfg.Rounds, r.replayMisses)
	}
	if r.rec != nil && r.emitted > 0 && r.emitted < cfg.Rounds {
		// The run stopped early (target accuracy): the trace holds only the
		// executed prefix, so the header must advertise the executed budget —
		// otherwise a replay would chase rounds that were never scheduled.
		// Sinks that cannot adjust their header (a StreamRecorder on a
		// non-seekable destination) surface the problem at their Close.
		if rs, ok := r.rec.(trace.RoundsSetter); ok {
			rs.SetRounds(r.emitted)
		}
	}
	r.res.TotalBytes, r.res.ModelBytes, r.res.MetaBytes = r.ledger.total, r.ledger.model, r.ledger.meta
	r.res.SimTime = r.now
	r.res.StaleMean, r.res.StaleMax, r.res.StaleP95 = r.stale.runStats()
	r.res.EffNeighborsMean, r.res.DropRate, r.res.LateDrops = r.polTrack.runStats()
	r.res.Epochs = r.epochCount
	if r.gapCount > 0 {
		r.res.SpectralGapMean = r.gapSum / float64(r.gapCount)
		r.res.SpectralGapMin = r.gapMin
	} else {
		r.res.SpectralGapMean, r.res.SpectralGapMin = math.NaN(), math.NaN()
	}
	if r.turnCount > 0 {
		r.res.TurnoverMean = r.turnSum / float64(r.turnCount)
	}
	if r.res.RoundsToTarget < 0 {
		r.res.BytesToTarget = r.ledger.total
		r.res.TimeToTarget = r.now
	}
	if r.tel != nil {
		if r.dcache != nil {
			// Fold the decode cache's counters in before the snapshot. Hit/miss
			// totals depend on pool interleaving, so they are telemetry only —
			// never part of a determinism comparison.
			h, m := r.dcache.Stats()
			r.tel.decodeHits.Add(h)
			r.tel.decodeMisses.Add(m)
		}
		r.res.Telemetry = r.tel.Snapshot()
	}
	return r.res, nil
}

// eventLoop pops and processes events until the queue empties, the run
// stops, or the iteration budget is met.
func (r *asyncRun) eventLoop() error {
	for r.queue.Len() > 0 && !r.stop {
		ev := r.queue.pop()
		r.now = ev.Time
		// A deferred aggregate must be on its node's tail before the node's
		// next train-done commits (deferTrain folds every queued node's next
		// train-done time into aggDue); flush first — it may enqueue the
		// members' deferred speculative trains, which the spec check below
		// then picks up in the same pass.
		if len(r.aggQueue) > 0 && ev.Time >= r.aggDue {
			r.flushAgg()
		}
		// A queued speculative dispatch must be in flight before its own
		// train-done commits; flushing at the first event at or after the
		// earliest queued train-done time guarantees that (and never changes
		// results — dispatching earlier is always safe).
		if len(r.specQueue) > 0 && ev.Time >= r.specDue {
			r.flushSpec()
		}
		if r.tel != nil {
			// Depth at pop, inclusive of the event just taken.
			r.tel.queueDepth.Observe(float64(r.queue.Len() + 1))
			r.tel.events[ev.Kind].Inc()
		}
		if r.cfg.OnEvent != nil {
			r.cfg.OnEvent(ev)
		}
		if r.rec != nil {
			if tev, ok := schedTraceEvent(&ev); ok {
				r.rec.Record(tev)
			}
		}
		var err error
		switch ev.Kind {
		case EventTrainDone:
			err = r.onTrainDone(&ev)
		case EventArrival:
			err = r.onArrival(&ev)
		case EventLeave:
			r.popChurn(ev.Node)
			err = r.onLeave(ev.Node)
		case EventJoin:
			r.popChurn(ev.Node)
			err = r.onJoin(ev.Node)
		case EventEpoch:
			err = r.onEpoch(&ev)
		case EventDeadline:
			err = r.onDeadline(&ev)
		}
		if err != nil {
			return err
		}
		if testEventHook != nil {
			testEventHook(r, &ev)
		}
		if r.emitted >= r.cfg.Rounds {
			break
		}
	}
	return nil
}

// testEventHook, when set, runs after every processed event. Tests use it to
// check scheduler invariants mid-run; it is nil outside tests.
var testEventHook func(r *asyncRun, ev *Event)

// graph returns the current epoch's live-filtered graph and mixing weights.
func (r *asyncRun) graph() (*topology.Graph, []topology.Weights) {
	return r.topo.Round(r.epoch)
}

// mixingSampled reports whether the spectral gap is computed for the given
// epoch under the MixingEvery cadence.
func (r *asyncRun) mixingSampled(epoch int) bool {
	k := r.cfg.MixingEvery
	if k < 0 {
		return false
	}
	if k <= 1 {
		return true
	}
	return epoch%k == 0
}

// validateReplayEpochs rejects replay configurations that cannot reproduce
// the recorded rotation schedule, before any event is processed.
func (r *asyncRun) validateReplayEpochs() error {
	if s := r.replay.Header().Meta["epoch_sec"]; s != "" {
		rec, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return fmt.Errorf("%w: trace epoch_sec %q: %v", ErrReplayConfig, s, err)
		}
		if rec != r.epochSec {
			return fmt.Errorf("%w: trace was recorded with epoch length %gs, engine topology uses %gs", ErrReplayConfig, rec, r.epochSec)
		}
	}
	if len(r.replay.Epochs()) > 0 && r.epochSec <= 0 {
		return fmt.Errorf("%w: trace carries topology-rotation events but the engine topology never rotates; wrap it in a topology.EpochProvider with the recorded epoch length", ErrReplayConfig)
	}
	return nil
}

// validateReplayPolicy rejects a replay whose aggregation policy differs from
// the recording's: the policy shapes the schedule (deadline events, waiting
// decisions), so a mismatch would stall or silently diverge. Traces without a
// policy header (hand-built) skip the check; parameters are compared only
// when the recording carries them in Meta.
func (r *asyncRun) validateReplayPolicy() error {
	h := r.replay.Header()
	if h.Policy == "" {
		return nil
	}
	if h.Policy != r.policy.Name() {
		return fmt.Errorf("%w: trace was recorded under the %q policy, engine runs %q", ErrReplayConfig, h.Policy, r.policy.Name())
	}
	checkInt := func(key string, got int) error {
		s := h.Meta[key]
		if s == "" {
			return nil
		}
		rec, err := strconv.Atoi(s)
		if err != nil {
			return fmt.Errorf("%w: trace %s %q: %v", ErrReplayConfig, key, s, err)
		}
		if rec != got {
			return fmt.Errorf("%w: trace was recorded with %s=%d, engine uses %d", ErrReplayConfig, key, rec, got)
		}
		return nil
	}
	switch p := r.policy.(type) {
	case BoundedStalenessPolicy:
		if err := checkInt("policy_k", p.K); err != nil {
			return err
		}
		if err := checkInt("policy_tau", p.Tau); err != nil {
			return err
		}
		if s := h.Meta["policy_adaptive"]; s != "" && (s == "true") != p.AdaptiveTau {
			return fmt.Errorf("%w: trace was recorded with policy_adaptive=%s, engine uses %v", ErrReplayConfig, s, p.AdaptiveTau)
		}
	case DeadlinePolicy:
		if s := h.Meta["policy_deadline_factor"]; s != "" {
			rec, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return fmt.Errorf("%w: trace policy_deadline_factor %q: %v", ErrReplayConfig, s, err)
			}
			if rec != p.Factor {
				return fmt.Errorf("%w: trace was recorded with deadline factor %g, engine uses %g", ErrReplayConfig, rec, p.Factor)
			}
		}
	}
	return nil
}

// validateReplayEval rejects a replay whose evaluation schedule differs from
// the recording's. Sampled evaluation never shapes the event schedule, but it
// does shape the emitted rows, so a replay claiming row parity must score the
// same subsets. Traces without eval meta (recorded exact, or predating the
// sampler) skip the check.
func (r *asyncRun) validateReplayEval() error {
	h := r.replay.Header()
	checkInt := func(key string, got int) error {
		s := h.Meta[key]
		if s == "" {
			return nil
		}
		rec, err := strconv.Atoi(s)
		if err != nil {
			return fmt.Errorf("%w: trace %s %q: %v", ErrReplayConfig, key, s, err)
		}
		if rec != got {
			return fmt.Errorf("%w: trace was recorded with %s=%d, engine uses %d", ErrReplayConfig, key, rec, got)
		}
		return nil
	}
	if err := checkInt("eval_sample", r.cfg.EvalSample); err != nil {
		return err
	}
	return checkInt("eval_rotate", r.cfg.EvalRotate)
}

// pushNextReplayEpoch schedules the next recorded rotation. It is called at
// the same program points where a live run would push its own boundary (run
// start, then at each processed boundary), so tie-break sequence numbers
// line up with the recording.
func (r *asyncRun) pushNextReplayEpoch() {
	if len(r.replayEpochs) == 0 {
		return
	}
	ev := r.replayEpochs[0]
	r.replayEpochs = r.replayEpochs[1:]
	r.push(Event{Time: ev.Time, Kind: EventEpoch, Iter: ev.Iter})
}

// onEpoch rotates the topology: the provider serves epoch ev.Iter from here
// on, payload buffers of severed edges are pruned (maps recycled), and every
// live node pushes its cached broadcast over each fresh edge. That state
// sync keeps the local barrier deadlock-free: a node waiting on a brand-new
// neighbor would otherwise block on an iteration payload that was broadcast
// before the edge existed. The re-sent payload carries the sender's last
// iteration, which is at least any iteration a waiting neighbor can be
// blocked on, so `got` bookkeeping advances and barriers re-fire.
func (r *asyncRun) onEpoch(ev *Event) error {
	if ev.Iter <= r.epoch {
		// Defensive: a stale or duplicate boundary (possible only in a
		// hand-edited replay trace) is a no-op — but it must still consume
		// its slot in the recorded rotation schedule, or every later
		// rotation would be silently dropped.
		if r.replay != nil {
			r.pushNextReplayEpoch()
		}
		return nil
	}
	gOld, _ := r.graph()
	r.epoch = ev.Iter
	gNew, wNew := r.graph()

	// Mixing instrumentation for the epoch just entered, restricted to live
	// nodes (a dead node's isolated row would pin the SLEM at 1). The gap is
	// only computed on MixingEvery-sampled epochs (NaN otherwise); turnover
	// is O(edges) and always reported.
	r.epochCount++
	if r.mixingSampled(r.epoch) {
		if r.liveBuf == nil {
			r.liveBuf = make([]bool, len(r.nodes))
		}
		for i := range r.nodes {
			r.liveBuf[i] = r.nodes[i].live
		}
		r.curGap = r.slem.SpectralGap(gNew, wNew, r.liveBuf)
		r.gapSum += r.curGap
		r.gapCount++
		if math.IsNaN(r.gapMin) || r.curGap < r.gapMin {
			r.gapMin = r.curGap
		}
	} else {
		r.curGap = math.NaN()
	}
	r.curTurnover = topology.EdgeTurnover(gOld, gNew)
	r.turnSum += r.curTurnover
	r.turnCount++

	// Adaptive-τ retune: the staleness bound for the new epoch is the p95 of
	// the lag samples observed since the previous boundary (floored at 1 so
	// the policy never degenerates to a strict barrier mid-run). Lags are a
	// deterministic function of the schedule, so recorded and replayed runs
	// retune identically. Epochs without samples keep the current bound.
	if bp, ok := r.policy.(BoundedStalenessPolicy); ok && bp.AdaptiveTau {
		if fresh := r.stale.all[r.epochLagStart:]; len(fresh) > 0 {
			tau := int(math.Ceil(trace.Quantile(fresh, 0.95)))
			if tau < 1 {
				tau = 1
			}
			r.curTau = tau
		}
		r.epochLagStart = len(r.stale.all)
	}

	// Re-key the per-edge buffers: payloads from senders that are no longer
	// neighbors can never satisfy a barrier and would otherwise accumulate
	// across rotations (the 384-node memory concern). Inner maps go back to
	// the pool for reuse by future arrivals. The `got` bookkeeping of a
	// severed edge is dropped too: if the edge reappears in a later epoch,
	// the barrier must wait for that boundary's state-sync arrival instead
	// of firing on stale evidence from a past epoch and aggregating without
	// the re-appeared neighbor's payload.
	for i := range r.nodes {
		st := &r.nodes[i]
		for j, box := range st.inbox {
			if !gNew.HasEdge(i, j) {
				delete(st.inbox, j)
				for k := range box {
					delete(box, k)
				}
				r.boxPool = append(r.boxPool, box)
			}
		}
		for j := range st.got {
			if !gNew.HasEdge(i, j) {
				delete(st.got, j)
			}
		}
	}
	if r.dcache != nil {
		// A sender the rotation fully disconnected has no recipients left for
		// its cached decodes; drop them (hygiene — identity keying already
		// rules out stale hits).
		for j := range r.nodes {
			if gNew.Degree(j) == 0 {
				r.dcache.InvalidateSender(j)
			}
		}
	}

	// State sync over fresh edges, serialized through each sender's uplink
	// like a broadcast. Both endpoints push, so a lagging node also receives
	// its new neighbor's latest state.
	for i := range r.nodes {
		st := &r.nodes[i]
		if !st.live || st.lastIter < 0 {
			continue
		}
		txEnd := 0.0
		for _, j := range gNew.Neighbors(i) {
			if gOld.HasEdge(i, j) {
				continue
			}
			txEnd += float64(len(st.lastPayload)+transport.FrameOverhead) / r.profiles[i].BandwidthBytesPerSec
			if err := r.sendOne(i, j, st.lastIter, st.lastPayload, st.lastBD, txEnd, false); err != nil {
				return err
			}
		}
	}
	if err := r.recheckAll(); err != nil {
		return err
	}
	// Schedule the next boundary only while other events remain: an
	// otherwise-dead run (everyone left for good) must drain, not rotate an
	// empty graph forever. Replay consumes the recorded schedule instead.
	if r.replay != nil {
		r.pushNextReplayEpoch()
	} else if r.epochSec > 0 && !r.stop && r.queue.Len() > 0 {
		r.push(Event{Time: float64(r.epoch+1) * r.epochSec, Kind: EventEpoch, Iter: r.epoch + 1})
	}
	return nil
}

// popChurn retires the front of node i's churn calendar as its leave/join
// event is processed (liveness no-ops still consume their calendar entry).
func (r *asyncRun) popChurn(i int) {
	if len(r.churnPending[i]) > 0 {
		r.churnPending[i] = r.churnPending[i][1:]
	}
}

// drain waits for every node's task chain to finish and returns the
// lowest-node-index error. It must run before Run returns so no pool worker
// keeps mutating node state after the caller regains control.
func (r *asyncRun) drain() error {
	// Deferred aggregates (and the speculative trains deferred with them)
	// must be in flight before the barrier: drain precedes evaluation rows,
	// error returns, and the end of the run, all of which read node state.
	r.flushAgg()
	if len(r.specQueue) > 0 {
		r.flushSpec()
	}
	var first error
	for i := range r.tails {
		if err := r.tails[i].wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// specSafe reports whether node i's train+share for the iteration starting
// now may run ahead of its train-done event (scheduled at time t) without
// becoming observable before the serial schedule would produce it. Two
// windows forbid it:
//
//   - a pending leave/join for node i at or before t would supersede the
//     event, and serial execution then never trains (the node's model,
//     loader, and RNG must stay untouched);
//   - an evaluation row at index < the train's iteration could be emitted
//     while the task is in flight, and evaluation reads every node's model.
//     Rows at or above the iteration cannot fire first: they need the node
//     itself to advance, which needs this train to commit.
func (r *asyncRun) specSafe(i int, t float64) bool {
	if pend := r.churnPending[i]; len(pend) > 0 && pend[0] <= t {
		return false
	}
	return r.nodes[i].iter <= r.nextEvalRow()
}

// nextEvalRow returns the smallest not-yet-emitted row index that will
// trigger an evaluation (the EvalEvery cadence or the final row).
func (r *asyncRun) nextEvalRow() int {
	e := r.cfg.EvalEvery
	k := r.emitted
	next := (k/e+1)*e - 1
	if last := r.cfg.Rounds - 1; last < next {
		next = last
	}
	return next
}

// push assigns the next sequence number and enqueues ev.
func (r *asyncRun) push(ev Event) {
	ev.Seq = r.seq
	r.seq++
	r.queue.push(ev)
}

// scheduleTrain enqueues node i's next train-done event under its profile —
// or, under replay, at the recorded completion time. A missing recording
// means the original event was superseded by churn before it mattered;
// skipping it is safe (the node's leave is on the schedule), and a stalled
// replay surfaces the miss count as a config-mismatch error.
func (r *asyncRun) scheduleTrain(i int) {
	st := &r.nodes[i]
	t := r.now + float64(localSteps(r.eng.Nodes[i]))*r.profiles[i].ComputeSecPerStep
	if r.replay != nil {
		rt, ok := r.replay.TrainDoneTime(i, st.iter)
		if !ok {
			r.replayMisses++
			return
		}
		// Clamp: a skewed cluster clock must not move simulated time backward.
		t = math.Max(rt, r.now)
	}
	r.push(Event{
		Time: t, Kind: EventTrainDone,
		Node: i, Iter: st.iter, gen: st.gen,
	})
	// Speculative dispatch: node i's state is final for this training phase
	// (nothing between here and the train-done event mutates it), so the
	// compute can start on the pool now and overlap other nodes' work. The
	// event loop commits the result — ledger, broadcast, trace — only when
	// the event fires, keeping the schedule bit-identical to serial. The
	// node's trainTask slot is reusable here: its previous result was
	// committed at the preceding train-done event (commit precedes the
	// aggregate that led to this scheduleTrain).
	if r.aggIdx[i] >= 0 {
		// The aggregate this train chains on is still queued: defer the
		// dispatch into the same queue entry so it chains on the batched
		// future at flush time (see aggbatch.go).
		r.deferTrain(i, st.iter, t, r.specSafe(i, t))
		return
	}
	if r.specSafe(i, t) {
		if r.cfg.ShareBatch >= 2 {
			if jn, ok := r.eng.Nodes[i].(*core.JWINSNode); ok {
				if plan := jn.SharePlan(); plan != nil {
					r.enqueueSpec(i, st.iter, t, jn, plan)
					return
				}
			}
		}
		r.dispatchSpec(i, st.iter)
	}
}

// dispatchSpec submits node i's speculative train+share for iteration iter
// on the pool — the per-node reference path (see scheduleTrain); the batched
// path in sharebatch.go must be bit-identical to it.
func (r *asyncRun) dispatchSpec(i, iter int) {
	tt := &r.trainTasks[i]
	tt.loss, tt.payload, tt.bd = 0, nil, codec.ByteBreakdown{}
	tt.fut = r.pool.submit(r.tails[i], func() error {
		loss, payload, bd, err := trainShare(r.eng.Nodes[i], iter)
		if err != nil {
			return fmt.Errorf("node %d share: %w", i, err)
		}
		tt.loss, tt.payload, tt.bd = loss, payload, bd
		return nil
	})
	r.pendTrain[i] = tt
	r.tails[i] = tt.fut
}

// onTrainDone runs the node's local steps and broadcast, then either blocks
// on the aggregation policy's readiness condition or (gossip) aggregates
// immediately. Under the deadline policy it also schedules the iteration's
// straggler deadline.
func (r *asyncRun) onTrainDone(ev *Event) error {
	i := ev.Node
	st := &r.nodes[i]
	if !st.live || ev.gen != st.gen || ev.Iter != st.iter {
		return nil // superseded by churn; speculation is suppressed for these
	}
	var (
		loss    float64
		payload []byte
		bd      codec.ByteBreakdown
	)
	if tt := r.pendTrain[i]; tt != nil {
		// Commit the speculative result at exactly the serial execution point.
		r.pendTrain[i] = nil
		if err := tt.fut.wait(); err != nil {
			return err
		}
		loss, payload, bd = tt.loss, tt.payload, tt.bd
		if r.tel != nil {
			r.tel.specHits.Inc()
		}
	} else {
		// Speculation was unsafe (churn or eval window): run inline, after any
		// still-running aggregate of this node.
		if r.tel != nil {
			r.tel.specMisses.Inc()
		}
		if err := r.tails[i].wait(); err != nil {
			return err
		}
		var err error
		loss, payload, bd, err = trainShare(r.eng.Nodes[i], st.iter)
		if err != nil {
			return fmt.Errorf("node %d share: %w", i, err)
		}
	}
	if r.isJWINS[i] {
		// Commit the sampled cut-off for row emission; LastAlpha itself may
		// run ahead under speculation.
		r.alphas[i] = r.eng.Nodes[i].(*core.JWINSNode).LastAlpha
	}
	if st.iter < len(r.lossSum) && !math.IsNaN(loss) {
		r.lossSum[st.iter] += loss
		r.lossCount[st.iter]++
	}
	if err := r.broadcast(i, st.iter, payload, bd); err != nil {
		return err
	}
	if !r.blocking {
		return r.aggregate(i)
	}
	st.waiting = true
	st.waitStart = r.now
	if dp, ok := r.policy.(DeadlinePolicy); ok {
		// The deadline is pushed before readiness is checked so its schedule
		// slot exists even when every payload already arrived (the stale
		// event is discarded at pop) — recording and replay then agree on
		// the event sequence. Under replay the recorded firing time is the
		// schedule; a deadline the recording never popped is not re-created.
		if r.replay != nil {
			if t, ok := r.replay.NextDeadline(i, st.iter); ok {
				r.push(Event{Time: math.Max(t, r.now), Kind: EventDeadline, Node: i, Iter: st.iter, gen: st.gen})
			}
		} else {
			t := r.now + dp.Factor*r.nominalRoundFor(i, len(payload))
			r.push(Event{Time: t, Kind: EventDeadline, Node: i, Iter: st.iter, gen: st.gen})
		}
	}
	return r.checkReady(i)
}

// nominalRoundFor estimates node i's own nominal round duration under its
// hardware profile and the current graph degree — the deadline policy's
// time base (compare Config.NominalRoundSec, which uses the base profile).
func (r *asyncRun) nominalRoundFor(i, payloadBytes int) float64 {
	p := r.profiles[i]
	g, _ := r.graph()
	return float64(localSteps(r.eng.Nodes[i]))*p.ComputeSecPerStep +
		float64(g.Degree(i)*(payloadBytes+transport.FrameOverhead))/p.BandwidthBytesPerSec +
		p.LatencySec
}

// onDeadline fires a node's straggler deadline: if the node is still waiting
// on the same iteration (and generation), the deadline unlocks the policy's
// readiness condition and the node aggregates whatever arrived. Anything else
// — the node aggregated early, churned, or advanced — makes the event stale
// and it is discarded.
func (r *asyncRun) onDeadline(ev *Event) error {
	st := &r.nodes[ev.Node]
	if !st.live || ev.gen != st.gen || ev.Iter != st.iter || !st.waiting {
		return nil
	}
	st.deadlineFired = true
	return r.checkReady(ev.Node)
}

// broadcast serializes copies of payload through node i's uplink to every
// live neighbor, charging the byte ledger per copy (drops included: the
// sender pays, the receiver only learns the message is gone). The payload is
// cached so rejoining neighbors can pull it later.
func (r *asyncRun) broadcast(i, iter int, payload []byte, bd codec.ByteBreakdown) error {
	st := &r.nodes[i]
	st.lastPayload, st.lastIter, st.lastBD = payload, iter, bd
	g, _ := r.graph()
	txEnd := 0.0
	for _, j := range g.Neighbors(i) {
		txEnd += float64(len(payload)+transport.FrameOverhead) / r.profiles[i].BandwidthBytesPerSec
		dropped := r.faultRNG != nil && r.faultRNG.Float64() < r.cfg.DropProb
		if err := r.sendOne(i, j, iter, payload, bd, txEnd, dropped); err != nil {
			return err
		}
	}
	return nil
}

// sendOne schedules one delivery from i to j, txDelay seconds of uplink
// serialization after now, and charges the ledger. Under replay the recorded
// schedule decides everything: the send record carries the drop flag, the
// arrival record the delivery time — and a send whose arrival was never
// recorded was still in flight when the recorded run ended, so it is paid
// for but never delivered, exactly like the original.
func (r *asyncRun) sendOne(i, j, iter int, payload []byte, bd codec.ByteBreakdown, txDelay float64, dropped bool) error {
	arriveAt := r.now + txDelay + r.profiles[i].LatencySec
	deliver := true
	if r.replay != nil {
		at, d, ok := r.replay.NextArrival(i, j, iter)
		if sd, sok := r.replay.NextSend(i, j, iter); sok {
			dropped = sd
		} else if ok {
			dropped = d
		} else {
			// Neither a send nor an arrival on record: count the miss; a
			// stalled replay reports it as a config mismatch.
			r.replayMisses++
		}
		if ok {
			// Clamp: skewed cluster clocks must not move simulated time back.
			arriveAt = math.Max(at, r.now)
		} else {
			deliver = false
		}
	}
	sent := r.ledger.addSend(bd, len(payload), 1)
	if r.tel != nil {
		r.tel.sends.Inc()
		r.tel.bytesTotal.Add(sent)
		r.tel.bytesModel.Add(int64(bd.Model))
		r.tel.bytesMeta.Add(int64(bd.Meta + transport.FrameOverhead))
	}
	if r.rec != nil {
		r.rec.Record(sendTraceEvent(r.now, i, j, iter, len(payload), bd, dropped))
	}
	if !deliver {
		return nil
	}
	if !dropped && r.eng.Mesh != nil {
		if err := r.eng.Mesh.Send(transport.Message{
			From: i, To: j, Round: iter, Payload: payload,
			SentAt: r.now, ArriveAt: arriveAt,
		}); err != nil {
			return fmt.Errorf("simulation: send %d->%d: %w", i, j, err)
		}
	}
	var cp []byte
	if !dropped && r.eng.Mesh == nil {
		cp = payload
	}
	r.push(Event{
		Time: arriveAt, Kind: EventArrival,
		Node: j, From: i, Iter: iter, Dropped: dropped, payload: cp,
	})
	return nil
}

// onArrival records a delivery (or drop notice) and re-checks the receiver's
// barrier.
func (r *asyncRun) onArrival(ev *Event) error {
	j := ev.Node
	st := &r.nodes[j]
	payload := ev.payload
	if !ev.Dropped && r.eng.Mesh != nil {
		msg, err := r.meshFetch(j, ev.From, ev.Iter)
		if err != nil {
			return err
		}
		payload = msg.Payload
	}
	if !st.live {
		return nil // the receiver is gone; the message is lost
	}
	if prev, ok := st.got[ev.From]; !ok || ev.Iter > prev {
		st.got[ev.From] = ev.Iter
	}
	if !ev.Dropped {
		box := st.inbox[ev.From]
		if box == nil {
			if n := len(r.boxPool); n > 0 {
				box = r.boxPool[n-1]
				r.boxPool = r.boxPool[:n-1]
			} else {
				box = make(map[int][]byte, 2)
			}
			st.inbox[ev.From] = box
		}
		if !r.blocking {
			// Keep only the freshest payload per sender.
			stale := false
			for k := range box {
				if k > ev.Iter {
					stale = true
				} else {
					delete(box, k)
				}
			}
			if stale {
				return nil
			}
		}
		box[ev.Iter] = payload
	}
	if st.waiting {
		return r.checkReady(j)
	}
	return nil
}

// checkReady consults the aggregation policy on node i's pending iteration:
// the full barrier fires once every live neighbor's payload (or drop notice,
// or departure) is in; bounded staleness once its quorum or lag bound holds;
// the deadline policy at the barrier or its deadline, whichever first.
func (r *asyncRun) checkReady(i int) error {
	st := &r.nodes[i]
	if !st.waiting || !r.ready(i) {
		return nil
	}
	st.waiting = false
	st.deadlineFired = false
	if r.telWait != nil {
		r.telWait.Observe(r.now - st.waitStart)
	}
	return r.aggregate(i)
}

// ready reports whether node i's pending iteration meets the aggregation
// policy's condition. It reads only i's live neighbours' bookkeeping, so a
// liveness change can only alter the readiness of the changed node's
// neighbours.
func (r *asyncRun) ready(i int) bool {
	st := &r.nodes[i]
	g, _ := r.graph()
	v := policyView{iter: st.iter, tau: r.curTau, deadline: st.deadlineFired, minGot: math.MaxInt}
	for _, j := range g.Neighbors(i) {
		v.live++
		got, ok := st.got[j]
		if !ok {
			got = -1
		}
		if got >= st.iter {
			v.heard++
		}
		if got < v.minGot {
			v.minGot = got
		}
	}
	return r.policy.ready(v)
}

// aggregate merges node i's buffered payloads under the live-subgraph mixing
// weights, advances its iteration, and reschedules training.
func (r *asyncRun) aggregate(i int) error {
	st := &r.nodes[i]
	g, w := r.graph()
	msgs := r.msgsPool.get(g.Degree(i))
	// lags holds one staleness sample per merged payload: the aggregator's
	// iteration minus the payload's, clamped at zero (neighbors running
	// ahead are not stale). The scratch is consumed synchronously below.
	lags := r.lagScratch[:0]
	for _, j := range g.Neighbors(i) {
		box := st.inbox[j]
		if len(box) == 0 {
			continue
		}
		// Prefer the payload matching this iteration (blocking policies),
		// falling back to the freshest buffered one (gossip, a bounded or
		// deadline merge of a straggler, or a fast-forwarded joiner).
		if p, ok := box[st.iter]; ok && r.blocking {
			msgs[j] = p
			lags = append(lags, 0)
			continue
		}
		best := -1
		for k := range box {
			if k > best {
				best = k
			}
		}
		if best >= 0 {
			msgs[j] = box[best]
			lags = append(lags, math.Max(0, float64(st.iter-best)))
		}
	}
	// Decode+mix runs on the pool: nothing on the event schedule depends on
	// its result (the payloads in msgs are immutable, and a liveness change
	// swaps fresh rows into a new weights slice copy-on-write — the row w[i]
	// handed out here is never mutated), so the loop moves on
	// while the model updates. The node's next train chains after it; row
	// evaluation and Run's exit wait for every chain. The worker returns the
	// msgs map to the pool once Aggregate has consumed it — map identity
	// cannot affect results because nodes sort senders before merging.
	if !r.enqueueAgg(i, st.iter, w[i], msgs) {
		r.submitAggregate(i, st.iter, w[i], msgs)
	}
	r.stale.add(st.iter, lags)
	if r.tel != nil {
		r.tel.aggregations.Inc()
		r.tel.inboxOccupancy.Observe(float64(len(lags)))
	}
	// Effective-neighbor / late-drop accounting: merged is what actually
	// mixed, expected the live-neighbor count, late the live neighbors whose
	// current-iteration payload had not landed (0 under the full barrier).
	{
		live, heard := g.Degree(i), 0
		for _, j := range g.Neighbors(i) {
			if got, ok := st.got[j]; ok && got >= st.iter {
				heard++
			}
		}
		r.polTrack.add(st.iter, len(lags), live, live-heard)
	}
	r.lagScratch = lags[:0]
	if r.rec != nil {
		// Mean and max are folded inline: summarizeLags would sort the
		// samples for a p95 the trace record does not carry.
		var sum, max float64
		for _, l := range lags {
			sum += l
			if l > max {
				max = l
			}
		}
		mean := 0.0
		if len(lags) > 0 {
			mean = sum / float64(len(lags))
		}
		r.rec.Record(trace.Event{
			Time: r.now, Kind: trace.KindAggregate, Node: i, Peer: -1, Iter: st.iter,
			LagMax: int(max), LagMean: mean, LagN: len(lags),
		})
	}
	if r.blocking {
		// Consume everything at or below the aggregated iteration. Emptied
		// boxes stay keyed in the inbox: the same neighbor refills them next
		// iteration, so dropping them would just re-allocate one box per edge
		// per round (epoch rotation prunes boxes of severed edges instead).
		for _, box := range st.inbox {
			for k := range box {
				if k <= st.iter {
					delete(box, k)
				}
			}
		}
	}
	r.moveFloor(st.iter, st.iter+1)
	st.iter++
	if err := r.emitRows(); err != nil {
		return err
	}
	if st.live && st.iter < r.cfg.Rounds && !r.stop {
		r.scheduleTrain(i)
	}
	return nil
}

// onLeave takes a node offline: its pending work is invalidated, the live
// subgraph shrinks, and neighbors blocked on it are re-checked.
func (r *asyncRun) onLeave(i int) error {
	st := &r.nodes[i]
	if !st.live {
		return nil
	}
	// The leaver's live neighbours, read before the graph shrinks: they are
	// the only nodes whose neighbour sets change.
	g, _ := r.graph()
	nbrs := g.Neighbors(i)
	st.live = false
	st.gen++
	st.waiting = false
	st.deadlineFired = false
	r.moveFloor(st.iter, -1)
	r.topo.SetLive(i, false)
	if r.dcache != nil {
		// Hygiene, not correctness: entries are identity-keyed, so dropping
		// the leaver's cached decodes just releases memory sooner.
		r.dcache.InvalidateSender(i)
	}
	// Departure can unblock waiting neighbors and raise the row floor.
	return r.recheck(nbrs)
}

// onJoin brings a node back: it keeps its (stale) model, fast-forwards to
// the run's current row floor, pulls every live neighbor's latest broadcast
// (the state sync that lets it participate in barriers whose payloads flew
// while it was away — without it, a joiner and a waiting neighbor could each
// block on a message the other will never resend), and starts training.
func (r *asyncRun) onJoin(i int) error {
	// onJoin re-dispatches work (the joiner's train, neighbor re-sends)
	// outside the aggregate→scheduleTrain flow; a queued aggregate for the
	// joiner must be on its tail before anything new chains after it.
	r.flushAgg()
	st := &r.nodes[i]
	if st.live {
		return nil
	}
	st.live = true
	st.gen++
	st.waiting = false
	st.deadlineFired = false
	if st.iter < r.emitted {
		st.iter = r.emitted
	}
	r.moveFloor(-1, st.iter)
	// Anything buffered before the departure is stale connectivity. The
	// bookkeeping maps are cleared in place and inner boxes recycled, not
	// re-allocated: churn at 1024-node scale must not grow the heap.
	for k := range st.got {
		delete(st.got, k)
	}
	for j, box := range st.inbox {
		delete(st.inbox, j)
		for k := range box {
			delete(box, k)
		}
		r.boxPool = append(r.boxPool, box)
	}
	r.topo.SetLive(i, true)
	g, _ := r.graph()
	for _, m := range g.Neighbors(i) {
		ms := &r.nodes[m]
		if ms.lastIter < 0 {
			continue
		}
		tx := float64(len(ms.lastPayload)+transport.FrameOverhead) / r.profiles[m].BandwidthBytesPerSec
		if err := r.sendOne(m, i, ms.lastIter, ms.lastPayload, ms.lastBD, tx, false); err != nil {
			return err
		}
	}
	if st.iter < r.cfg.Rounds && !r.stop {
		r.scheduleTrain(i)
	}
	return r.recheck(g.Neighbors(i))
}

// recheck re-evaluates the emission floor and the readiness of the waiting
// nodes among nbrs, in ascending order, after a liveness change confined to
// their neighbour sets. No other node's readiness inputs changed, so this
// fires exactly the aggregations a full-fleet scan would, in the same order.
func (r *asyncRun) recheck(nbrs []int) error {
	if err := r.emitRows(); err != nil {
		return err
	}
	r.touched += len(nbrs)
	for _, j := range nbrs {
		if r.nodes[j].waiting {
			if err := r.checkReady(j); err != nil {
				return err
			}
		}
	}
	return nil
}

// recheckAll re-evaluates every waiting node's readiness and the emission
// floor after a fleet-wide change (an epoch rotation).
func (r *asyncRun) recheckAll() error {
	if err := r.emitRows(); err != nil {
		return err
	}
	for i := range r.nodes {
		if r.nodes[i].waiting {
			if err := r.checkReady(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// meshFetch drains the mesh for receiver `to` until the message from `from`
// carrying iteration `iter` surfaces, buffering everything else. Matching on
// (sender, iteration) — not sender alone — matters: the mesh delivers in
// send order, but arrival events fire in simulated-delivery order, and a
// small iteration-k+1 payload can overtake a large iteration-k one through
// the same uplink.
func (r *asyncRun) meshFetch(to, from, iter int) (transport.Message, error) {
	pending := r.meshPending[to][from]
	for idx, msg := range pending {
		if msg.Round == iter {
			r.meshPending[to][from] = append(pending[:idx:idx], pending[idx+1:]...)
			return msg, nil
		}
	}
	for {
		msg, err := r.eng.Mesh.Recv(to)
		if err != nil {
			return transport.Message{}, fmt.Errorf("simulation: recv for %d: %w", to, err)
		}
		if msg.From == from && msg.Round == iter {
			return msg, nil
		}
		r.meshPending[to][msg.From] = append(r.meshPending[to][msg.From], msg)
	}
}

// emitRows publishes iteration rows up to the minimum iteration completed by
// all live nodes, evaluating on the sync engine's cadence.
func (r *asyncRun) emitRows() error {
	for r.floorAbove() && r.emitted < r.cfg.Rounds && !r.stop {
		k := r.emitted
		// Sampled runs reuse the row's eval subset for the alpha summary too,
		// keeping emission O(sample); exact runs keep the full-fleet mean.
		subset := r.evalSamp.subsetFor(k)
		var alpha float64
		if subset != nil {
			alpha = meanOverIdx(r.alphas, subset)
		} else {
			alpha = mean(r.alphas)
		}
		rm := RoundMetrics{
			Round:            k,
			TrainLoss:        math.NaN(),
			TestLoss:         math.NaN(),
			TestAcc:          math.NaN(),
			CumTotalBytes:    r.ledger.total,
			CumModelBytes:    r.ledger.model,
			CumMetaBytes:     r.ledger.meta,
			SimTime:          r.now,
			MeanAlpha:        alpha,
			Epoch:            r.epoch,
			SpectralGap:      r.curGap,
			NeighborTurnover: r.curTurnover,
		}
		rm.StaleMean, rm.StaleMax, rm.StaleP95 = r.stale.rowStats(k)
		rm.EffNeighbors, rm.DropRate = r.polTrack.rowStats(k)
		if r.lossCount[k] > 0 {
			rm.TrainLoss = r.lossSum[k] / float64(r.lossCount[k])
		}
		if k%r.cfg.EvalEvery == r.cfg.EvalEvery-1 || k == r.cfg.Rounds-1 {
			// Synchronization point: evaluation reads every model, so every
			// chain must land. Speculation safety guarantees no train task
			// from the serial future is in flight here.
			if err := r.drain(); err != nil {
				return err
			}
			var live []bool
			if subset != nil {
				// Sampled rows skip offline nodes (they contribute NaN); the
				// exact path keeps its historical all-nodes semantics, so the
				// live mask only exists when sampling is on.
				if r.liveBuf == nil {
					r.liveBuf = make([]bool, len(r.nodes))
				}
				for i := range r.nodes {
					r.liveBuf[i] = r.nodes[i].live
				}
				live = r.liveBuf
			}
			loss, acc := evaluateNodesOn(r.pool, r.eng.Nodes, r.eng.TestSet, r.cfg.Config, subset, live)
			rm.TestLoss, rm.TestAcc = loss, acc
			r.res.FinalAccuracy, r.res.FinalLoss = acc, loss
			if r.cfg.TargetAccuracy > 0 && acc >= r.cfg.TargetAccuracy && r.res.RoundsToTarget < 0 {
				r.res.RoundsToTarget = k + 1
				r.res.BytesToTarget = r.ledger.total
				r.res.TimeToTarget = r.now
				r.stop = true
			}
		}
		r.res.Rounds = append(r.res.Rounds, rm)
		if r.tel != nil {
			r.tel.rows.Inc()
		}
		if r.eng.OnRound != nil {
			r.eng.OnRound(rm)
		}
		r.emitted++
	}
	return nil
}

// floorAbove reports whether every live node has completed an iteration
// past the next row to emit. Nobody live freezes the floor at emitted (dead
// nodes cannot hold rows back forever; rows resume when someone rejoins).
func (r *asyncRun) floorAbove() bool {
	r.touched++
	return r.liveCount > 0 && r.atIter[r.emitted] == 0
}

// moveFloor moves one live node's entry in the row-floor counters from
// iteration from to iteration to; -1 on either side is a leave or a join.
func (r *asyncRun) moveFloor(from, to int) {
	r.touched++
	if from >= 0 {
		r.atIter[min(from, r.cfg.Rounds)]--
	} else {
		r.liveCount++
	}
	if to >= 0 {
		r.atIter[min(to, r.cfg.Rounds)]++
	} else {
		r.liveCount--
	}
}
