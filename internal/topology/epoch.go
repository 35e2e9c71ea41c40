// epoch.go extends the provider vocabulary for the async engine's
// simulated-time world: graphs there are not keyed by a global round number
// (no such thing exists under the event-driven scheduler) but by *epochs* of
// simulated seconds. EpochProvider rotates the base graph once per epoch and
// filters it to the live node set, SeededDynamic supplies deterministic
// random-access per-epoch regular graphs, and the mixing instrumentation
// (spectral gap, edge turnover) quantifies why rotating helps: a fresh random
// regular graph every epoch keeps the expected spectral gap high, so
// information spreads in O(log n) epochs even when any single snapshot mixes
// poorly.
package topology

import (
	"math"

	"repro/internal/vec"
)

// LiveProvider is a Provider that additionally tracks node liveness and
// serves live-induced subgraphs. Masked (static pin) and EpochProvider
// (epoch-rotated) both implement it; the async engine drives either through
// this interface.
type LiveProvider interface {
	Provider
	// SetLive flips one node's liveness. The next Round serves a new
	// subgraph patched copy-on-write; graphs and weight rows served earlier
	// are never modified, so callers (and pool tasks) may keep reading them.
	SetLive(node int, alive bool)
	// Live reports whether node is currently live.
	Live(node int) bool
	// NumLive counts the live nodes.
	NumLive() int
	// ResetLive marks every node live again (the start-of-run state).
	ResetLive()
}

// SeededDynamic yields a random d-regular graph per round index where round
// t's graph is a pure function of (Seed, t): queries are random-access and
// repeatable, unlike Dynamic, whose shared RNG stream makes graphs depend on
// query history. The async engine requires this — its epoch queries can
// repeat and, under trace replay, must regenerate the recorded sequence
// exactly.
type SeededDynamic struct {
	N, D int
	Seed uint64

	cachedRound int
	cachedG     *Graph
	cachedW     []Weights
}

// NewSeededDynamic builds the provider. Parameters are validated on first
// use (Regular's constraints: n*d even, 2 <= d < n).
func NewSeededDynamic(n, d int, seed uint64) *SeededDynamic {
	return &SeededDynamic{N: n, D: d, Seed: seed, cachedRound: -1}
}

// Round implements Provider. Mixing weights are built lazily: the
// EpochProvider path only needs the graph (it recomputes weights on the
// live-induced subgraph), so rotations skip the full-graph weight pass.
func (s *SeededDynamic) Round(t int) (*Graph, []Weights) {
	g := s.Graph(t)
	if s.cachedW == nil {
		s.cachedW = MetropolisHastings(g)
	}
	return g, s.cachedW
}

// Graph returns round t's graph without building mixing weights. The
// per-round RNG is derived by mixing the round index into the base seed
// through SplitMix64, so neighboring rounds get statistically independent
// graphs.
func (s *SeededDynamic) Graph(t int) *Graph {
	if t != s.cachedRound || s.cachedG == nil {
		st := s.Seed ^ (uint64(t) + 0x65706f6368) // "epoch"
		rng := vec.NewRNG(vec.SplitMix64(&st))
		g, err := Regular(s.N, s.D, rng)
		if err != nil {
			panic("topology: seeded dynamic generation failed: " + err.Error())
		}
		s.cachedG, s.cachedW = g, nil
		s.cachedRound = t
	}
	return s.cachedG
}

// EpochProvider rotates a base Provider on simulated-time epochs and filters
// every epoch's graph to the currently live nodes, recomputing
// Metropolis-Hastings weights on the induced subgraph (Masked semantics).
// Round takes an *epoch index*, not a synchronous round number; EpochAt maps
// simulated time to that index. Liveness changes are queued and patched into
// the served subgraph copy-on-write on the next Round (see liveView), and an
// epoch whose base graph differs rebuilds it with every queued change
// applied, so a SetLive racing an epoch boundary — churn processed at the
// same simulated instant the graph rotates — is served correctly whichever
// of the two queries comes first.
type EpochProvider struct {
	// Base yields the unfiltered graph per epoch index: Static repeats one
	// graph (only liveness changes across epochs), SeededDynamic
	// re-randomizes deterministically.
	Base Provider
	// EpochSec is the epoch length in simulated seconds. Non-positive means
	// a single epoch spanning the whole run.
	EpochSec float64

	liveView
}

// NewEpochProvider builds an epoch provider over n nodes, all initially live.
func NewEpochProvider(base Provider, n int, epochSec float64) *EpochProvider {
	return &EpochProvider{Base: base, EpochSec: epochSec, liveView: newLiveView(n)}
}

// EpochAt maps a simulated timestamp to its epoch index.
func (p *EpochProvider) EpochAt(t float64) int {
	if p.EpochSec <= 0 || t <= 0 {
		return 0
	}
	return int(math.Floor(t / p.EpochSec))
}

// graphOnly is satisfied by bases that can serve a round's graph without
// building mixing weights (SeededDynamic); EpochProvider always recomputes
// weights on the live-induced subgraph, so the base's weights are dead work.
type graphOnly interface {
	Graph(t int) *Graph
}

// Round implements Provider over the live-induced subgraph of epoch e.
func (p *EpochProvider) Round(e int) (*Graph, []Weights) {
	return p.serve(e, func(e int) *Graph {
		if gp, ok := p.Base.(graphOnly); ok {
			return gp.Graph(e)
		}
		g, _ := p.Base.Round(e)
		return g
	})
}

// SLEMScratch holds the power-iteration work buffers of MixingSLEM so
// repeated gap computations (one per epoch on a 1024-node run) reuse them
// instead of allocating four O(n) arrays each time. The zero value is ready;
// a scratch is not safe for concurrent use.
type SLEMScratch struct {
	idx  []int
	pos  []int
	x, y []float64
}

// MixingSLEM returns the second-largest eigenvalue modulus of the mixing
// matrix W restricted to the live nodes (nil live = all live), estimated by
// deterministic power iteration with deflation of the top eigenvector.
//
// W over a connected live set is symmetric doubly stochastic (Metropolis-
// Hastings), so its top eigenpair is (1, uniform); iterating W on a vector
// kept orthogonal to uniform converges to |lambda_2|. The spectral gap
// 1 - |lambda_2| governs mixing: per gossip round, the deviation from
// consensus contracts by at least lambda_2, so a larger gap means faster
// information spread. A disconnected live subgraph has a second eigenvalue
// of 1 (gap 0): no amount of averaging merges separated components, which
// is exactly what the instrumentation should report.
//
// The estimate is a pure function of (g, w, live) — fixed start vector,
// fixed iteration/tolerance schedule — so replays and parallel runs
// reproduce it bit for bit.
func MixingSLEM(g *Graph, w []Weights, live []bool) float64 {
	return new(SLEMScratch).MixingSLEM(g, w, live)
}

// MixingSLEM is the scratch-reusing form of the package-level MixingSLEM:
// same estimate, bit for bit, with the work buffers kept across calls.
func (s *SLEMScratch) MixingSLEM(g *Graph, w []Weights, live []bool) float64 {
	idx := s.idx[:0]
	for i := 0; i < g.N; i++ {
		if live == nil || (i < len(live) && live[i]) {
			idx = append(idx, i)
		}
	}
	s.idx = idx
	m := len(idx)
	if m <= 1 {
		return 0
	}
	if cap(s.pos) < g.N {
		s.pos = make([]int, g.N)
	}
	pos := s.pos[:g.N]
	for k, i := range idx {
		pos[i] = k
	}
	if cap(s.x) < m {
		s.x = make([]float64, m)
		s.y = make([]float64, m)
	}
	x, y := s.x[:m], s.y[:m]
	// Deterministic non-uniform start vector, already roughly mean-free.
	rng := vec.NewRNG(0x6d6978) // "mix"
	for k := range x {
		x[k] = rng.Float64() - 0.5
	}
	deflate := func(v []float64) {
		var sum float64
		for _, e := range v {
			sum += e
		}
		mean := sum / float64(m)
		for k := range v {
			v[k] -= mean
		}
	}
	norm := func(v []float64) float64 {
		var s float64
		for _, e := range v {
			s += e * e
		}
		return math.Sqrt(s)
	}
	deflate(x)
	if n := norm(x); n > 0 {
		for k := range x {
			x[k] /= n
		}
	}
	est := 0.0
	for iter := 0; iter < 400; iter++ {
		// y = W x over the live-restricted rows.
		for k, i := range idx {
			v := w[i].Self * x[k]
			for _, j := range g.Adj[i] {
				if live == nil || (j < len(live) && live[j]) {
					v += w[i].Neighbor[j] * x[pos[j]]
				}
			}
			y[k] = v
		}
		deflate(y)
		n := norm(y)
		if n == 0 {
			return 0
		}
		for k := range y {
			y[k] /= n
		}
		x, y = y, x
		if iter >= 50 && math.Abs(n-est) <= 1e-12 {
			return clampSLEM(n)
		}
		est = n
	}
	return clampSLEM(est)
}

func clampSLEM(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// SpectralGap is 1 - MixingSLEM: 0 for disconnected live subgraphs, close to
// 1 for expander-like graphs.
func SpectralGap(g *Graph, w []Weights, live []bool) float64 {
	return 1 - MixingSLEM(g, w, live)
}

// SpectralGap is the scratch-reusing form of the package-level SpectralGap.
func (s *SLEMScratch) SpectralGap(g *Graph, w []Weights, live []bool) float64 {
	return 1 - s.MixingSLEM(g, w, live)
}

// EdgeTurnover reports which fraction of cur's edges are new relative to
// prev (0 = identical edge set, 1 = fully rotated), counting only edges with
// both endpoints live in cur. A nil prev (the run's first epoch) counts as
// full turnover when cur has any edge. The async engine reports this per
// epoch as the neighbor-turnover rate.
func EdgeTurnover(prev, cur *Graph) float64 {
	total, fresh := 0, 0
	for i := 0; i < cur.N; i++ {
		for _, j := range cur.Adj[i] {
			if j <= i {
				continue
			}
			total++
			if prev == nil || i >= prev.N || !prev.HasEdge(i, j) {
				fresh++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(fresh) / float64(total)
}
