// Package topology builds the communication graphs used by decentralized
// learning: random d-regular graphs (the paper's setting), rings, and fully
// connected graphs, together with Metropolis-Hastings mixing weights and
// support for dynamic (per-round re-randomized) topologies.
package topology

import (
	"fmt"

	"repro/internal/vec"
)

// Graph is an undirected simple graph over nodes 0..N-1 stored as sorted
// adjacency lists. A Graph is immutable once built: the constructors and
// providers in this package never modify Adj, or any row in it, after
// returning one, which is what lets HasEdge build its adjacency bitmap
// lazily. The live-filtering providers share unchanged rows between the
// graphs they serve (copy-on-write): a liveness change yields a new Graph
// whose Adj header points at the old rows except for the few it rebuilt.
type Graph struct {
	N   int
	Adj [][]int

	// bitmap is the N×N adjacency matrix, built lazily on the first HasEdge
	// query (it sits on the async engine's arrival/epoch path, where the old
	// O(degree) scan was measurable at 1024 nodes). nil until then; graphs
	// past maxBitmapNodes answer from a binary search instead.
	bitmap []uint64
}

// maxBitmapNodes caps the lazily-built adjacency bitmap at 4096 nodes
// (4096² bits = 2 MiB); larger graphs fall back to binary search over the
// sorted adjacency lists.
const maxBitmapNodes = 4096

// Neighbors returns the adjacency list of node i. Callers must not modify it.
func (g *Graph) Neighbors(i int) []int { return g.Adj[i] }

// Degree returns the degree of node i.
func (g *Graph) Degree(i int) int { return len(g.Adj[i]) }

// HasEdge reports whether the undirected edge {i, j} exists. The first query
// on a bitmap-sized graph materializes the adjacency bitmap; later queries
// are one mask test. Lazy construction is safe because graphs are only
// queried from the single-threaded scheduler loop (Graph is not safe for
// concurrent first use, like the rest of the provider caching).
//
// Keep HasEdge off per-event paths of a live-filtering provider's graphs:
// every liveness change yields a new Graph, so a per-event query would build
// a fresh N²-bit bitmap (2 MiB at 4096 nodes) each time. Per-epoch use, or a
// scan of one node's sorted Neighbors, is the intended shape.
func (g *Graph) HasEdge(i, j int) bool {
	if g.bitmap == nil {
		if g.N > maxBitmapNodes {
			return g.hasEdgeSearch(i, j)
		}
		g.buildBitmap()
	}
	bit := uint(i*g.N + j)
	return g.bitmap[bit>>6]&(1<<(bit&63)) != 0
}

// hasEdgeSearch answers by binary search over the sorted adjacency list.
func (g *Graph) hasEdgeSearch(i, j int) bool {
	adj := g.Adj[i]
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := (lo + hi) / 2
		if adj[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(adj) && adj[lo] == j
}

func (g *Graph) buildBitmap() {
	g.bitmap = make([]uint64, (g.N*g.N+63)/64)
	for i, adj := range g.Adj {
		row := i * g.N
		for _, j := range adj {
			bit := uint(row + j)
			g.bitmap[bit>>6] |= 1 << (bit & 63)
		}
	}
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, a := range g.Adj {
		total += len(a)
	}
	return total / 2
}

// Connected reports whether the graph is connected (true for N <= 1).
func (g *Graph) Connected() bool {
	if g.N <= 1 {
		return true
	}
	seen := make([]bool, g.N)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == g.N
}

// Ring returns the cycle graph over n nodes (n >= 3), or the single edge for
// n == 2, or an isolated vertex for n == 1.
func Ring(n int) *Graph {
	g := &Graph{N: n, Adj: make([][]int, n)}
	switch {
	case n <= 1:
	case n == 2:
		g.Adj[0] = []int{1}
		g.Adj[1] = []int{0}
	default:
		for i := 0; i < n; i++ {
			prev := (i - 1 + n) % n
			next := (i + 1) % n
			if prev < next {
				g.Adj[i] = []int{prev, next}
			} else {
				g.Adj[i] = []int{next, prev}
			}
		}
	}
	return g
}

// Full returns the complete graph over n nodes.
func Full(n int) *Graph {
	g := &Graph{N: n, Adj: make([][]int, n)}
	for i := 0; i < n; i++ {
		adj := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				adj = append(adj, j)
			}
		}
		g.Adj[i] = adj
	}
	return g
}

// Regular returns a connected random d-regular simple graph over n nodes.
// It starts from a circulant base graph (guaranteed d-regular and connected)
// and applies random degree-preserving double-edge swaps, rejecting swaps
// that would create self-loops, parallel edges, or disconnect the graph.
// n*d must be even, d < n, and d >= 2 for n > 2.
func Regular(n, d int, rng *vec.RNG) (*Graph, error) {
	if d >= n {
		return nil, fmt.Errorf("topology: degree %d must be < n=%d", d, n)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("topology: n*d must be even (n=%d, d=%d)", n, d)
	}
	if d < 2 && n > 2 {
		return nil, fmt.Errorf("topology: degree %d cannot form a connected graph over %d nodes", d, n)
	}
	edges := circulantEdges(n, d)
	// Randomize with double-edge swaps: pick edges (a,b), (c,e); rewire to
	// (a,c), (b,e) when the result stays simple. ~10 swaps per edge mixes well.
	attempts := 10 * len(edges)
	edgeSet := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		edgeSet[e] = true
	}
	for t := 0; t < attempts; t++ {
		i := rng.Intn(len(edges))
		j := rng.Intn(len(edges))
		if i == j {
			continue
		}
		a, b := edges[i][0], edges[i][1]
		c, e := edges[j][0], edges[j][1]
		if rng.Intn(2) == 1 {
			c, e = e, c
		}
		// New edges: (a,c) and (b,e).
		if a == c || b == e {
			continue
		}
		n1, n2 := normEdge(a, c), normEdge(b, e)
		if edgeSet[n1] || edgeSet[n2] || n1 == n2 {
			continue
		}
		delete(edgeSet, edges[i])
		delete(edgeSet, edges[j])
		edgeSet[n1] = true
		edgeSet[n2] = true
		edges[i], edges[j] = n1, n2
	}
	g := graphFromEdges(n, edges)
	if !g.Connected() {
		// Extremely unlikely starting from a connected circulant with simple
		// swap acceptance, but regenerate deterministically if it happens.
		return Regular(n, d, rng)
	}
	for i := 0; i < n; i++ {
		if g.Degree(i) != d {
			return nil, fmt.Errorf("topology: internal error: node %d degree %d != %d", i, g.Degree(i), d)
		}
	}
	return g, nil
}

// circulantEdges builds the edge list of the circulant graph C_n(1..d/2)
// plus the antipodal matching when d is odd (n must then be even).
func circulantEdges(n, d int) [][2]int {
	var edges [][2]int
	for k := 1; k <= d/2; k++ {
		for i := 0; i < n; i++ {
			j := (i + k) % n
			e := normEdge(i, j)
			if k == n-k && i > j {
				continue // avoid double-adding antipodal offset when 2k == n
			}
			edges = append(edges, e)
		}
	}
	if d%2 == 1 {
		for i := 0; i < n/2; i++ {
			edges = append(edges, normEdge(i, i+n/2))
		}
	}
	return dedupeEdges(edges)
}

func dedupeEdges(edges [][2]int) [][2]int {
	seen := make(map[[2]int]bool, len(edges))
	out := edges[:0]
	for _, e := range edges {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

func normEdge(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

func graphFromEdges(n int, edges [][2]int) *Graph {
	g := &Graph{N: n, Adj: make([][]int, n)}
	for _, e := range edges {
		g.Adj[e[0]] = append(g.Adj[e[0]], e[1])
		g.Adj[e[1]] = append(g.Adj[e[1]], e[0])
	}
	for i := range g.Adj {
		sortInts(g.Adj[i])
	}
	return g
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// MetropolisHastings returns the mixing weight rows for g: for edge {i,j},
// w_ij = 1/(1+max(deg_i, deg_j)); the self weight w_ii absorbs the remainder
// so each row sums to 1. Rows are returned as neighbor-indexed maps plus the
// self weight. This is the doubly stochastic scheme of Xiao & Boyd used by
// the paper's D-PSGD.
func MetropolisHastings(g *Graph) []Weights {
	out := make([]Weights, g.N)
	for i := range out {
		out[i] = mhRow(g, i)
	}
	return out
}

// mhRow builds node i's Metropolis-Hastings row. It reads only i's adjacency
// and its neighbours' degrees, which is what lets the live view rebuild a
// handful of rows after a liveness change.
func mhRow(g *Graph, i int) Weights {
	w := Weights{Neighbor: make(map[int]float64, g.Degree(i))}
	var sum float64
	for _, j := range g.Adj[i] {
		wij := 1.0 / (1.0 + float64(maxInt(g.Degree(i), g.Degree(j))))
		w.Neighbor[j] = wij
		sum += wij
	}
	w.Self = 1 - sum
	return w
}

// Weights is one node's mixing row: its self weight and one weight per
// neighbor. For a connected graph, Self + sum(Neighbor) == 1.
type Weights struct {
	Self     float64
	Neighbor map[int]float64
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Provider yields the topology for each round. Static topologies return the
// same graph every round; dynamic topologies (paper Figure 7) re-randomize.
type Provider interface {
	// Round returns the graph and per-node mixing weights for round t.
	Round(t int) (*Graph, []Weights)
}

// Static wraps a fixed graph as a Provider.
type Static struct {
	G *Graph
	W []Weights
}

// NewStatic builds a static provider with Metropolis-Hastings weights.
func NewStatic(g *Graph) *Static {
	return &Static{G: g, W: MetropolisHastings(g)}
}

// Round implements Provider.
func (s *Static) Round(int) (*Graph, []Weights) { return s.G, s.W }

// Induced returns the subgraph of g induced by the live set: node ids are
// preserved, but every edge with a dead endpoint is removed, so dead nodes
// become isolated vertices. The async engine uses this to shrink and grow the
// active communication graph as nodes leave and rejoin mid-run.
func Induced(g *Graph, live []bool) *Graph {
	out := &Graph{N: g.N, Adj: make([][]int, g.N)}
	for i := range out.Adj {
		out.Adj[i] = inducedRow(g, live, i)
	}
	return out
}

// inducedRow is node i's adjacency row in the subgraph of g induced by live:
// nil for a dead node, else i's live neighbours in g's order.
func inducedRow(g *Graph, live []bool, i int) []int {
	if i < len(live) && !live[i] {
		return nil
	}
	adj := make([]int, 0, len(g.Adj[i]))
	for _, j := range g.Adj[i] {
		if j >= len(live) || live[j] {
			adj = append(adj, j)
		}
	}
	return adj
}

// Masked wraps a Provider and restricts every round's graph to the currently
// live nodes, recomputing Metropolis-Hastings weights on the induced
// subgraph. Rows of dead nodes are empty with Self == 1, so a rejoining node
// that has not yet re-earned edges simply keeps its own model. Liveness
// changes patch the served subgraph copy-on-write (see liveView): graphs and
// weights served earlier are never modified.
type Masked struct {
	Base Provider

	liveView
}

// NewMasked builds a masked provider with all n nodes initially live.
func NewMasked(base Provider, n int) *Masked {
	return &Masked{Base: base, liveView: newLiveView(n)}
}

// Round implements Provider over the live-induced subgraph.
func (m *Masked) Round(t int) (*Graph, []Weights) {
	return m.serve(t, func(t int) *Graph {
		g, _ := m.Base.Round(t)
		return g
	})
}

// Dynamic regenerates a random d-regular graph every round, modelling the
// paper's dynamic-topology experiment (randomized neighbors each round).
type Dynamic struct {
	N, D int
	rng  *vec.RNG

	cachedRound int
	cachedG     *Graph
	cachedW     []Weights
}

// NewDynamic builds a dynamic d-regular provider seeded by rng.
func NewDynamic(n, d int, rng *vec.RNG) *Dynamic {
	return &Dynamic{N: n, D: d, rng: rng, cachedRound: -1}
}

// Round implements Provider. Graphs are generated on first access per round
// and cached so all nodes in a round see the same topology.
func (dy *Dynamic) Round(t int) (*Graph, []Weights) {
	if t != dy.cachedRound {
		g, err := Regular(dy.N, dy.D, dy.rng)
		if err != nil {
			// Construction parameters were validated by the first successful
			// call; failures here are programmer error.
			panic(fmt.Sprintf("topology: dynamic regeneration failed: %v", err))
		}
		dy.cachedG, dy.cachedW = g, MetropolisHastings(g)
		dy.cachedRound = t
	}
	return dy.cachedG, dy.cachedW
}
