package topology

// liveView is the live-induced subgraph shared by the live-filtering
// providers (Masked, EpochProvider): per-node liveness flags and the served
// Graph and Metropolis-Hastings rows, kept copy-on-write.
//
// A liveness flip only changes the adjacency rows of the flipped node and of
// its base neighbours, and a weight row depends only on its node's adjacency
// and its neighbours' degrees. So SetLive just queues the node, and the next
// serve copies the previous Adj/[]Weights headers and swaps in freshly built
// rows for those nodes and their live neighbours — O(degree²) row work per
// flip instead of rebuilding all n rows. Rows are built by the same
// inducedRow/mhRow that Induced and MetropolisHastings use, so a patched view
// is bit-identical to a full rebuild. Rows already handed out are never
// mutated: a caller holding an earlier *Graph or []Weights (or a pool task
// reading one Weights row) keeps seeing exactly what it was served. The full
// rebuild runs only when the base graph itself changes (a new epoch of a
// rotating base).
type liveView struct {
	live   []bool
	queued []bool // node is in dirty
	dirty  []int  // nodes flipped since the view was last served

	base *Graph // unfiltered graph g and w were derived from
	key  int    // round or epoch index of the served view
	g    *Graph
	w    []Weights

	// Patch scratch: stamp[i] == gen marks row i as already collected in rows.
	stamp []int
	gen   int
	rows  []int

	rowsBuilt int
}

func newLiveView(n int) liveView {
	live := make([]bool, n)
	for i := range live {
		live[i] = true
	}
	return liveView{live: live, queued: make([]bool, n), stamp: make([]int, n)}
}

// SetLive flips one node's liveness. The served subgraph is patched on the
// next Round; subgraphs served earlier stay unchanged.
func (v *liveView) SetLive(node int, alive bool) {
	if v.live[node] == alive {
		return
	}
	v.live[node] = alive
	if !v.queued[node] {
		v.queued[node] = true
		v.dirty = append(v.dirty, node)
	}
}

// Live reports whether node is currently live.
func (v *liveView) Live(node int) bool { return v.live[node] }

// NumLive counts the live nodes.
func (v *liveView) NumLive() int {
	n := 0
	for _, a := range v.live {
		if a {
			n++
		}
	}
	return n
}

// ResetLive marks every node live again (the start-of-run state).
func (v *liveView) ResetLive() {
	for i := range v.live {
		v.SetLive(i, true)
	}
}

// RowsBuilt counts the adjacency and weight rows this view has built so far:
// n of each per full rebuild, O(degree²) per patched liveness flip. It is
// instrumentation for complexity tests.
func (v *liveView) RowsBuilt() int { return v.rowsBuilt }

// serve returns the live-induced view of round key, whose unfiltered graph
// base yields. base is consulted only when key changes: providers serve one
// graph per index.
func (v *liveView) serve(key int, base func(int) *Graph) (*Graph, []Weights) {
	if v.g == nil || key != v.key {
		b := base(key)
		v.key = key
		if v.g == nil || b != v.base {
			v.rebuild(b)
		}
	}
	if len(v.dirty) > 0 {
		v.patch()
	}
	return v.g, v.w
}

// rebuild derives the whole view from base.
func (v *liveView) rebuild(base *Graph) {
	v.base = base
	v.g = Induced(base, v.live)
	v.w = MetropolisHastings(v.g)
	v.rowsBuilt += 2 * base.N
	v.clearDirty()
}

// patch rebuilds only the rows the queued flips changed, into fresh headers.
func (v *liveView) patch() {
	n := v.g.N
	g := &Graph{N: n, Adj: make([][]int, n)}
	copy(g.Adj, v.g.Adj)
	w := make([]Weights, n)
	copy(w, v.w)

	v.gen++
	v.rows = v.rows[:0]
	// Adjacency rows: each flipped node and its base neighbours.
	for _, i := range v.dirty {
		v.collect(i)
		for _, j := range v.base.Adj[i] {
			v.collect(j)
		}
	}
	nAdj := len(v.rows)
	for _, i := range v.rows {
		g.Adj[i] = inducedRow(v.base, v.live, i)
	}
	// Weight rows: those nodes plus their live neighbours, whose rows read
	// the changed degrees.
	for k := 0; k < nAdj; k++ {
		for _, j := range g.Adj[v.rows[k]] {
			v.collect(j)
		}
	}
	for _, i := range v.rows {
		w[i] = mhRow(g, i)
	}
	v.rowsBuilt += nAdj + len(v.rows)
	v.g, v.w = g, w
	v.clearDirty()
}

// collect adds row i to the current patch's row list once.
func (v *liveView) collect(i int) {
	if v.stamp[i] != v.gen {
		v.stamp[i] = v.gen
		v.rows = append(v.rows, i)
	}
}

func (v *liveView) clearDirty() {
	for _, i := range v.dirty {
		v.queued[i] = false
	}
	v.dirty = v.dirty[:0]
}
