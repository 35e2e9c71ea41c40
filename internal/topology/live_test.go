package topology

import (
	"fmt"
	"testing"

	"repro/internal/vec"
)

// served is one view a live provider handed out, with a deep copy taken at
// serve time so later mutation of the shared rows would show.
type served struct {
	g     *Graph
	w     []Weights
	adj   [][]int
	self  []float64
	neigh []map[int]float64
}

func snapshot(g *Graph, w []Weights) served {
	s := served{g: g, w: w, adj: make([][]int, g.N), self: make([]float64, g.N), neigh: make([]map[int]float64, g.N)}
	for i := 0; i < g.N; i++ {
		s.adj[i] = append([]int(nil), g.Adj[i]...)
		s.self[i] = w[i].Self
		s.neigh[i] = make(map[int]float64, len(w[i].Neighbor))
		for j, v := range w[i].Neighbor {
			s.neigh[i][j] = v
		}
	}
	return s
}

// sameView reports the first row where (g, w) differs from the reference
// adjacency and weights under ==, or -1.
func sameView(g *Graph, w []Weights, adj [][]int, self []float64, neigh []map[int]float64) int {
	if g.N != len(adj) || len(w) != len(adj) {
		return 0
	}
	for i := range adj {
		if len(g.Adj[i]) != len(adj[i]) || w[i].Self != self[i] || len(w[i].Neighbor) != len(neigh[i]) {
			return i
		}
		for k, j := range adj[i] {
			if g.Adj[i][k] != j {
				return i
			}
		}
		for j, v := range neigh[i] {
			if got, ok := w[i].Neighbor[j]; !ok || got != v {
				return i
			}
		}
	}
	return -1
}

// liveHarness drives one live provider and checks it against a fresh
// Induced + MetropolisHastings after every step.
type liveHarness struct {
	t       testing.TB
	p       LiveProvider
	base    func(k int) *Graph
	live    []bool
	key     int
	history []served
}

func newLiveHarness(t testing.TB, p LiveProvider, n int, base func(k int) *Graph) *liveHarness {
	h := &liveHarness{t: t, p: p, base: base, live: make([]bool, n)}
	for i := range h.live {
		h.live[i] = true
	}
	return h
}

func (h *liveHarness) flip(node int) {
	h.live[node] = !h.live[node]
	h.p.SetLive(node, h.live[node])
}

// check serves the current key and compares it with a fresh rebuild, then
// verifies every earlier served view is still exactly what it was.
func (h *liveHarness) check(step int) {
	h.t.Helper()
	g, w := h.p.Round(h.key)
	fresh := Induced(h.base(h.key), h.live)
	ref := snapshot(fresh, MetropolisHastings(fresh))
	if row := sameView(g, w, ref.adj, ref.self, ref.neigh); row >= 0 {
		h.t.Fatalf("step %d (key %d): served row %d differs from a fresh Induced+MetropolisHastings", step, h.key, row)
	}
	for i := range h.live {
		if h.p.Live(i) != h.live[i] {
			h.t.Fatalf("step %d: Live(%d) = %v, want %v", step, i, h.p.Live(i), h.live[i])
		}
	}
	h.history = append(h.history, snapshot(g, w))
	for k, s := range h.history {
		if row := sameView(s.g, s.w, s.adj, s.self, s.neigh); row >= 0 {
			h.t.Fatalf("step %d: view served at check %d was mutated (row %d)", step, k, row)
		}
	}
}

// liveCase names one provider shape the differential test drives.
type liveCase struct {
	name  string
	epoch bool // Round keys may advance
	build func(g *Graph, n, d int, seed uint64) (LiveProvider, func(int) *Graph)
}

var liveCases = []liveCase{
	{"masked-static", false, func(g *Graph, n, d int, seed uint64) (LiveProvider, func(int) *Graph) {
		return NewMasked(NewStatic(g), n), func(int) *Graph { return g }
	}},
	{"epoch-static", true, func(g *Graph, n, d int, seed uint64) (LiveProvider, func(int) *Graph) {
		return NewEpochProvider(NewStatic(g), n, 1), func(int) *Graph { return g }
	}},
	{"epoch-seeded", true, func(g *Graph, n, d int, seed uint64) (LiveProvider, func(int) *Graph) {
		ref := NewSeededDynamic(n, d, seed)
		return NewEpochProvider(NewSeededDynamic(n, d, seed), n, 1), ref.Graph
	}},
}

// runLiveOps interprets ops as a leave/join/epoch script: the low bits pick
// a node to flip, 0x40 defers the check so several flips batch into one
// patch, and 0x80 (on epoch providers) advances or revisits the epoch.
func runLiveOps(t testing.TB, c liveCase, n, d int, seed uint64, ops []byte) {
	g, err := Regular(n, d, vec.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	p, base := c.build(g, n, d, seed)
	h := newLiveHarness(t, p, n, base)
	h.check(-1)
	for step, op := range ops {
		switch {
		case op&0x80 != 0 && c.epoch:
			if op&1 == 0 {
				h.key++
			} else if h.key > 0 {
				h.key--
			}
		default:
			h.flip(int(op&0x3f) % n)
		}
		if op&0x40 == 0 {
			h.check(step)
		}
	}
	h.check(len(ops))
}

// TestLiveViewDifferential: random leave/join/epoch sequences on Regular
// graphs of degree 4-6 must serve, after every step, exactly the rows a
// fresh Induced + MetropolisHastings builds (compared with ==), and must
// never modify a graph or weight row handed out earlier.
func TestLiveViewDifferential(t *testing.T) {
	for _, c := range liveCases {
		for _, d := range []int{4, 5, 6} {
			for trial := uint64(0); trial < 3; trial++ {
				n := 24 + 2*int(trial)
				rng := vec.NewRNG(100*trial + uint64(d))
				ops := make([]byte, 150)
				for k := range ops {
					ops[k] = byte(rng.Intn(256))
				}
				c, d, trial := c, d, trial
				t.Run(fmt.Sprintf("%s/d%d/%d", c.name, d, trial), func(t *testing.T) {
					runLiveOps(t, c, n, d, trial+uint64(d), ops)
				})
			}
		}
	}
}

// TestLiveViewPatchesLocally: a liveness flip on a degree-d graph rebuilds
// O(d²) rows, independent of n, while a static base never triggers a second
// full rebuild.
func TestLiveViewPatchesLocally(t *testing.T) {
	const d = 6
	perFlip := func(n int) float64 {
		g, err := Regular(n, d, vec.NewRNG(3))
		if err != nil {
			t.Fatal(err)
		}
		p := NewEpochProvider(NewStatic(g), n, 1)
		p.Round(0)
		start := p.RowsBuilt()
		rng := vec.NewRNG(4)
		const flips = 200
		for k := 0; k < flips; k++ {
			i := rng.Intn(n)
			p.SetLive(i, !p.Live(i))
			p.Round(k % 3)
		}
		return float64(p.RowsBuilt()-start) / flips
	}
	small, large := perFlip(512), perFlip(4096)
	if max := float64(2 * (1 + d + d*d)); large > max {
		t.Fatalf("%.1f rows per flip at 4096 nodes, want at most %.0f", large, max)
	}
	if large > 1.5*small {
		t.Fatalf("rows per flip grew with n: %.1f at 512, %.1f at 4096", small, large)
	}
}

// FuzzLiveSet drives the live view with arbitrary leave/join/epoch scripts
// (see runLiveOps) and checks it against a fresh rebuild after every step.
func FuzzLiveSet(f *testing.F) {
	f.Add(uint8(0), uint8(4), uint8(0), []byte{1, 2, 3, 1, 0x42, 0x43, 5})
	f.Add(uint8(7), uint8(5), uint8(1), []byte{0x80, 3, 0x44, 0x81, 4, 0x80, 0x80, 3})
	f.Add(uint8(30), uint8(6), uint8(2), []byte{0x80, 0x41, 0x42, 0x80, 2, 0x81, 0x81, 7, 7})
	f.Fuzz(func(t *testing.T, nSel, dSel, kind uint8, ops []byte) {
		d := 4 + int(dSel)%3
		n := 8 + int(nSel)%33
		if n*d%2 != 0 {
			n++
		}
		if len(ops) > 64 {
			ops = ops[:64]
		}
		runLiveOps(t, liveCases[int(kind)%len(liveCases)], n, d, uint64(nSel)+uint64(dSel), ops)
	})
}
