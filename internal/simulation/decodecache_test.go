package simulation

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/vec"
)

// syncCacheRun runs one n-node degree-4 synchronous fleet with message drops
// and offline nodes. wrap, when non-nil, decorates each node before the run;
// mesh, when non-nil, routes delivery through it.
func syncCacheRun(t *testing.T, n, rounds int, kind algo, fc codec.FloatCodec, p int, noCache bool, mesh transport.Mesh, wrap func(core.Node) core.Node) *Result {
	t.Helper()
	ds, parts := buildTask(t, n, 42)
	nodes := buildNodesWithCodec(t, kind, ds, parts, 7, func(int) codec.FloatCodec { return fc })
	if wrap != nil {
		for i := range nodes {
			nodes[i] = wrap(nodes[i])
		}
	}
	g, err := topology.Regular(n, 4, vec.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{
		Nodes:    nodes,
		Topology: topology.NewStatic(g),
		TestSet:  ds,
		Mesh:     mesh,
		Config: Config{
			Rounds: rounds, EvalEvery: 3, Parallelism: p,
			DropProb: 0.15, OfflineProb: 0.1, FaultSeed: 3,
			noDecodeCache: noCache,
		},
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// firstFieldDiff returns the name of the first field where two structs of
// the same type differ (floats compared NaN-aware), or "" when all match.
// Slice fields (Result.Rounds) are skipped; the caller compares them.
func firstFieldDiff(a, b reflect.Value) string {
	for i := 0; i < a.NumField(); i++ {
		x, y := a.Field(i), b.Field(i)
		var same bool
		switch x.Kind() {
		case reflect.Slice:
			continue
		case reflect.Float64:
			same = sameFloat(x.Float(), y.Float())
		default:
			same = x.Interface() == y.Interface()
		}
		if !same {
			return a.Type().Field(i).Name
		}
	}
	return ""
}

// assertResultsBitIdentical requires every Result field and every
// RoundMetrics row to match exactly.
func assertResultsBitIdentical(t *testing.T, name string, want, got *Result) {
	t.Helper()
	if len(want.Rounds) != len(got.Rounds) {
		t.Fatalf("%s: %d rows, want %d", name, len(got.Rounds), len(want.Rounds))
	}
	for i := range want.Rounds {
		if f := firstFieldDiff(reflect.ValueOf(want.Rounds[i]), reflect.ValueOf(got.Rounds[i])); f != "" {
			t.Fatalf("%s: row %d differs in %s:\n want %+v\n got  %+v", name, i, f, want.Rounds[i], got.Rounds[i])
		}
	}
	if f := firstFieldDiff(reflect.ValueOf(*want), reflect.ValueOf(*got)); f != "" {
		t.Fatalf("%s: Result differs in %s:\n want %+v\n got  %+v", name, f, *want, *got)
	}
}

// TestSyncDecodeCacheParity: on the synchronous engine the fleet-shared
// decode cache must change nothing — cache-on runs match noDecodeCache runs
// in every Result field and every row, for all four algorithms crossed with
// three codecs under drops and offline nodes, at every parallelism level.
// The mesh arm delivers copies, so every lookup misses; it must still match
// uncached direct delivery.
func TestSyncDecodeCacheParity(t *testing.T) {
	const n, rounds = 16, 6
	algos := []struct {
		name string
		kind algo
	}{{"jwins", algoJWINS}, {"full", algoFull}, {"random", algoRandom}, {"choco", algoChoco}}
	codecs := []struct {
		name string
		fc   codec.FloatCodec
	}{{"raw32", codec.Raw32{}}, {"flate32", codec.PlaneFlate32{}}, {"xor32", codec.XOR32{}}}
	for _, a := range algos {
		for _, c := range codecs {
			a, c := a, c
			t.Run(a.name+"/"+c.name, func(t *testing.T) {
				for _, p := range parallelismLevels() {
					off := syncCacheRun(t, n, rounds, a.kind, c.fc, p, true, nil, nil)
					on := syncCacheRun(t, n, rounds, a.kind, c.fc, p, false, nil, nil)
					assertResultsBitIdentical(t, a.name+"/"+c.name+"/cache-on-vs-off", off, on)
				}
			})
		}
	}
	t.Run("mesh/jwins/flate32", func(t *testing.T) {
		for _, p := range parallelismLevels() {
			off := syncCacheRun(t, n, rounds, algoJWINS, codec.PlaneFlate32{}, p, true, nil, nil)
			mesh := transport.NewInMemory(n)
			on := syncCacheRun(t, n, rounds, algoJWINS, codec.PlaneFlate32{}, p, false, mesh, nil)
			mesh.Close()
			assertResultsBitIdentical(t, "mesh-cache-on-vs-direct-off", off, on)
		}
	})
}

// deliveryLog counts what a fleet's aggregates receive: every non-empty
// delivered payload, and the distinct payloads among them by backing-array
// identity (the cache's key). The map keeps each payload alive, so no
// address is reused while the log lives.
type deliveryLog struct {
	mu         sync.Mutex
	deliveries int64
	distinct   map[*byte]struct{}
}

// cacheProbe wraps a node to log its deliveries and remember the decode
// cache the engine attaches. It forwards the optional interfaces the engines
// probe for: core.DecodeCacheUser and LocalStepCount.
type cacheProbe struct {
	core.Node
	log   *deliveryLog
	cache *core.DecodeCache
}

var _ core.DecodeCacheUser = (*cacheProbe)(nil)

func (n *cacheProbe) Aggregate(round int, w topology.Weights, msgs map[int][]byte) error {
	if n.log != nil {
		n.log.mu.Lock()
		for _, p := range msgs {
			if len(p) > 0 {
				n.log.deliveries++
				n.log.distinct[&p[0]] = struct{}{}
			}
		}
		n.log.mu.Unlock()
	}
	return n.Node.Aggregate(round, w, msgs)
}

func (n *cacheProbe) SetDecodeCache(c *core.DecodeCache) {
	if u, ok := n.Node.(core.DecodeCacheUser); ok {
		u.SetDecodeCache(c)
		n.cache = c
	}
}

func (n *cacheProbe) LocalStepCount() int { return localSteps(n.Node) }

// TestSyncDecodesOncePerBroadcast pins the decode count, not a timing: on a
// 64-node degree-4 JWINS run with drops and offline nodes, the fleet decodes
// each distinct delivered payload exactly once (misses) and serves every
// other delivery from the cache (hits) — about n decodes per round instead
// of n·d (each node broadcasts at most one payload per round).
func TestSyncDecodesOncePerBroadcast(t *testing.T) {
	const n, rounds = 64, 5
	for _, p := range []int{1, runtime.NumCPU()} {
		log := &deliveryLog{distinct: make(map[*byte]struct{})}
		var probes []*cacheProbe
		syncCacheRun(t, n, rounds, algoJWINS, codec.PlaneFlate32{}, p, false, nil, func(nd core.Node) core.Node {
			pr := &cacheProbe{Node: nd, log: log}
			probes = append(probes, pr)
			return pr
		})
		c := probes[0].cache
		if c == nil {
			t.Fatalf("p=%d: no decode cache attached", p)
		}
		for i, pr := range probes {
			if pr.cache != c {
				t.Fatalf("p=%d: node %d holds a different cache", p, i)
			}
		}
		hits, misses := c.Stats()
		distinct := int64(len(log.distinct))
		if misses != distinct {
			t.Fatalf("p=%d: %d decodes, want one per distinct delivered payload (%d)", p, misses, distinct)
		}
		if hits != log.deliveries-misses {
			t.Fatalf("p=%d: %d hits, want deliveries-misses = %d-%d", p, hits, log.deliveries, misses)
		}
	}
}

// TestDecodeCacheDetachedWhenOff: a run with the cache off must detach the
// cache an earlier run on the same fleet attached. Otherwise the fleet keeps
// decoding through the old cache and the "off" arm measures the "on" path.
func TestDecodeCacheDetachedWhenOff(t *testing.T) {
	const n, rounds = 8, 4
	ds, parts := buildTask(t, n, 42)
	g, err := topology.Regular(n, 4, vec.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	engines := []struct {
		name string
		run  func(nodes []core.Node, off bool) error
	}{
		{"sync", func(nodes []core.Node, off bool) error {
			eng := &Engine{Nodes: nodes, Topology: topology.NewStatic(g), TestSet: ds,
				Config: Config{Rounds: rounds, EvalEvery: rounds, noDecodeCache: off}}
			_, err := eng.Run()
			return err
		}},
		{"async", func(nodes []core.Node, off bool) error {
			eng := &AsyncEngine{Nodes: nodes, Topology: topology.NewStatic(g), TestSet: ds,
				Config: AsyncConfig{Config: Config{Rounds: rounds, EvalEvery: rounds, noDecodeCache: off}}}
			_, err := eng.Run()
			return err
		}},
	}
	for _, e := range engines {
		e := e
		t.Run(e.name, func(t *testing.T) {
			nodes := buildNodes(t, algoJWINS, ds, parts, 7)
			probes := make([]*cacheProbe, n)
			for i := range nodes {
				probes[i] = &cacheProbe{Node: nodes[i]}
				nodes[i] = probes[i]
			}
			if err := e.run(nodes, false); err != nil {
				t.Fatal(err)
			}
			first := probes[0].cache
			if first == nil {
				t.Fatal("cache-on run attached no cache")
			}
			hits, misses := first.Stats()
			if hits == 0 {
				t.Fatal("cache-on run recorded no hits")
			}
			if err := e.run(nodes, true); err != nil {
				t.Fatal(err)
			}
			if h, m := first.Stats(); h != hits || m != misses {
				t.Fatalf("cache-off run decoded through the earlier cache: stats (%d,%d) -> (%d,%d)", hits, misses, h, m)
			}
			for i, pr := range probes {
				if pr.cache != nil {
					t.Fatalf("node %d still holds a cache after the cache-off run", i)
				}
			}
		})
	}
}
