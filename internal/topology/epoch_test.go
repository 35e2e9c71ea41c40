package topology

import (
	"math"
	"testing"

	"repro/internal/vec"
)

// TestSeededDynamicRandomAccess: round t's graph must depend only on
// (seed, t) — repeated and out-of-order queries return identical graphs,
// unlike Dynamic's history-dependent stream.
func TestSeededDynamicRandomAccess(t *testing.T) {
	a := NewSeededDynamic(24, 4, 7)
	g5a, _ := a.Round(5)
	g2, _ := a.Round(2)
	g5b, _ := a.Round(5) // revisit after moving away
	if !sameAdj(g5a, g5b) {
		t.Fatal("revisiting an epoch returned a different graph")
	}
	if sameAdj(g5a, g2) {
		t.Fatal("distinct epochs returned identical graphs (seed mixing broken)")
	}

	b := NewSeededDynamic(24, 4, 7)
	g5c, _ := b.Round(5) // fresh provider, direct query
	if !sameAdj(g5a, g5c) {
		t.Fatal("graph depends on query history, not just (seed, round)")
	}
	other := NewSeededDynamic(24, 4, 8)
	g5d, _ := other.Round(5)
	if sameAdj(g5a, g5d) {
		t.Fatal("different seeds returned identical graphs")
	}
	for i := 0; i < 24; i++ {
		if g5a.Degree(i) != 4 {
			t.Fatalf("node %d degree %d != 4", i, g5a.Degree(i))
		}
	}
	if !g5a.Connected() {
		t.Fatal("generated graph not connected")
	}
}

func sameAdj(a, b *Graph) bool {
	if a.N != b.N {
		return false
	}
	for i := 0; i < a.N; i++ {
		if len(a.Adj[i]) != len(b.Adj[i]) {
			return false
		}
		for k := range a.Adj[i] {
			if a.Adj[i][k] != b.Adj[i][k] {
				return false
			}
		}
	}
	return true
}

// TestEpochProviderRotatesAndFilters: epochs rotate the base graph, dead
// nodes are isolated, and weights are recomputed on the induced subgraph.
func TestEpochProviderRotatesAndFilters(t *testing.T) {
	p := NewEpochProvider(NewSeededDynamic(16, 4, 3), 16, 2.5)
	g0, w0 := p.Round(0)
	g1, _ := p.Round(1)
	if sameAdj(g0, g1) {
		t.Fatal("epochs 0 and 1 returned identical graphs")
	}
	if w0[3].Self <= 0 {
		t.Fatalf("implausible self weight %v", w0[3].Self)
	}

	p.SetLive(3, false)
	g1b, w1b := p.Round(1)
	if len(g1b.Adj[3]) != 0 {
		t.Fatal("dead node kept edges")
	}
	if w1b[3].Self != 1 || len(w1b[3].Neighbor) != 0 {
		t.Fatalf("dead node row not isolated: %+v", w1b[3])
	}
	for _, j := range g1.Adj[3] {
		if g1b.HasEdge(j, 3) {
			t.Fatalf("live node %d still linked to dead node 3", j)
		}
	}

	if p.NumLive() != 15 || p.Live(3) {
		t.Fatal("liveness bookkeeping wrong")
	}
	p.ResetLive()
	if p.NumLive() != 16 {
		t.Fatal("ResetLive did not restore the full set")
	}
	g1c, _ := p.Round(1)
	if !sameAdj(g1, g1c) {
		t.Fatal("ResetLive did not restore epoch 1's full graph")
	}
}

// TestEpochProviderEpochAt maps simulated time to epoch indices.
func TestEpochProviderEpochAt(t *testing.T) {
	p := NewEpochProvider(NewStatic(Ring(8)), 8, 2.0)
	for _, tc := range []struct {
		t    float64
		want int
	}{{0, 0}, {1.99, 0}, {2, 1}, {3.5, 1}, {4, 2}, {-1, 0}} {
		if got := p.EpochAt(tc.t); got != tc.want {
			t.Fatalf("EpochAt(%v) = %d, want %d", tc.t, got, tc.want)
		}
	}
	unbounded := NewEpochProvider(NewStatic(Ring(8)), 8, 0)
	if unbounded.EpochAt(1e12) != 0 {
		t.Fatal("EpochSec <= 0 must pin epoch 0")
	}
}

// TestEpochProviderCacheInvalidation: liveness changes are queued until the
// next Round, so a SetLive racing an epoch boundary — liveness
// flips interleaved with epoch queries in either order — must never serve a
// stale subgraph. This is the async-engine scenario where a churn event and
// a topology rotation land on the same simulated instant.
func TestEpochProviderCacheInvalidation(t *testing.T) {
	p := NewEpochProvider(NewSeededDynamic(16, 4, 9), 16, 1.0)

	// Query epoch 1, then flip liveness, then re-query the same epoch: the
	// cached full graph must be rebuilt.
	full, _ := p.Round(1)
	p.SetLive(5, false)
	masked, _ := p.Round(1)
	if len(masked.Adj[5]) != 0 {
		t.Fatal("SetLive after a same-epoch query served the stale cache")
	}
	if sameAdj(full, masked) && len(full.Adj[5]) > 0 {
		t.Fatal("cache not invalidated by SetLive")
	}

	// Opposite interleaving: flip liveness first, then cross the epoch
	// boundary; the new epoch's graph must already exclude the dead node.
	p.SetLive(7, false)
	g2, _ := p.Round(2)
	if len(g2.Adj[7]) != 0 || len(g2.Adj[5]) != 0 {
		t.Fatal("epoch advance lost earlier liveness changes")
	}

	// Flip back on the boundary epoch: same epoch index, third liveness
	// version — still fresh.
	p.SetLive(5, true)
	g2b, _ := p.Round(2)
	if len(g2b.Adj[5]) == 0 {
		t.Fatal("rejoined node has no edges in the re-queried epoch")
	}
	// Redundant SetLive must not invalidate the served view.
	p.SetLive(5, true)
	gc, _ := p.Round(2)
	if gc != g2b {
		t.Fatal("no-op SetLive invalidated the served graph")
	}
}

// TestMaskedCacheInvalidationInterleaved mirrors the EpochProvider test for
// Masked: SetLive between two same-round queries must rebuild.
func TestMaskedCacheInvalidationInterleaved(t *testing.T) {
	g, err := Regular(12, 4, vec.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMasked(NewStatic(g), 12)
	full, _ := m.Round(0)
	if len(full.Adj[2]) != 4 {
		t.Fatalf("unexpected base degree %d", len(full.Adj[2]))
	}
	m.SetLive(2, false)
	masked, _ := m.Round(0)
	if len(masked.Adj[2]) != 0 {
		t.Fatal("Masked served stale cache after SetLive")
	}
	m.ResetLive()
	restored, _ := m.Round(0)
	if !sameAdj(full, restored) {
		t.Fatal("ResetLive did not restore the full graph")
	}
}

// TestMixingSLEM: known orderings — the complete graph mixes in one step
// (SLEM 0 under MH within numerical tolerance... in fact MH on K_n gives
// SLEM < ring's), a ring mixes slowly (SLEM near 1), a disconnected live
// set does not mix at all (SLEM 1, gap 0) — and the estimate is a pure
// function of its inputs.
func TestMixingSLEM(t *testing.T) {
	full := Full(16)
	ring := Ring(16)
	sFull := MixingSLEM(full, MetropolisHastings(full), nil)
	sRing := MixingSLEM(ring, MetropolisHastings(ring), nil)
	if !(sFull < sRing) {
		t.Fatalf("complete graph SLEM %v not below ring %v", sFull, sRing)
	}
	if sRing < 0.9 || sRing > 1 {
		t.Fatalf("ring SLEM %v implausible (theory: 1-O(1/n^2))", sRing)
	}
	if sFull < 0 || sFull > 0.5 {
		t.Fatalf("complete graph SLEM %v implausible", sFull)
	}

	// Two live components: no global mixing.
	g := &Graph{N: 4, Adj: [][]int{{1}, {0}, {3}, {2}}}
	if s := MixingSLEM(g, MetropolisHastings(g), nil); math.Abs(s-1) > 1e-6 {
		t.Fatalf("disconnected SLEM %v, want 1", s)
	}
	if gap := SpectralGap(g, MetropolisHastings(g), nil); gap > 1e-6 {
		t.Fatalf("disconnected gap %v, want 0", gap)
	}

	// Restricting to a live path inside the ring must still be connected.
	live := make([]bool, 16)
	for i := 0; i < 8; i++ {
		live[i] = true
	}
	ind := Induced(ring, live)
	s := MixingSLEM(ind, MetropolisHastings(ind), live)
	if s <= 0 || s >= 1 {
		t.Fatalf("live-path SLEM %v outside (0,1)", s)
	}

	// Determinism.
	a := MixingSLEM(ring, MetropolisHastings(ring), nil)
	b := MixingSLEM(ring, MetropolisHastings(ring), nil)
	if a != b {
		t.Fatalf("SLEM not deterministic: %v vs %v", a, b)
	}

	// Degenerate sizes.
	if s := MixingSLEM(Ring(1), MetropolisHastings(Ring(1)), nil); s != 0 {
		t.Fatalf("single node SLEM %v, want 0", s)
	}
}

// TestEdgeTurnover: identical graphs turn over nothing, disjoint edge sets
// everything, and a rotated regular graph lands in between.
func TestEdgeTurnover(t *testing.T) {
	r := Ring(8)
	if got := EdgeTurnover(r, r); got != 0 {
		t.Fatalf("self turnover %v, want 0", got)
	}
	if got := EdgeTurnover(nil, r); got != 1 {
		t.Fatalf("nil-prev turnover %v, want 1", got)
	}
	sd := NewSeededDynamic(24, 4, 11)
	g0, _ := sd.Round(0)
	g1, _ := sd.Round(1)
	tv := EdgeTurnover(g0, g1)
	if tv <= 0 || tv > 1 {
		t.Fatalf("rotated turnover %v outside (0,1]", tv)
	}
	empty := &Graph{N: 4, Adj: make([][]int, 4)}
	if got := EdgeTurnover(r, empty); got != 0 {
		t.Fatalf("empty current graph turnover %v, want 0", got)
	}
}
