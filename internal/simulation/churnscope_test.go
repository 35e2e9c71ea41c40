package simulation

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/topology"
	"repro/internal/vec"
)

// stubNode is a compute-free core.Node: it trains, shares and mixes nothing,
// so scheduler tests can run thousands of nodes through the event loop.
type stubNode struct {
	id    int
	model nn.Trainable
}

var stubPayload = make([]byte, 64)

func (s *stubNode) ID() int             { return s.id }
func (s *stubNode) LocalTrain() float64 { return 0 }
func (s *stubNode) Share(int) ([]byte, codec.ByteBreakdown, error) {
	return stubPayload, codec.ByteBreakdown{Model: len(stubPayload)}, nil
}
func (s *stubNode) Aggregate(int, topology.Weights, map[int][]byte) error { return nil }
func (s *stubNode) Model() nn.Trainable                                   { return s.model }

// stubEngine builds an n-node stub fleet over topo with a 25% churn
// trace spread over the first half of the run. Only one node is evaluated
// (the shared model is not safe for concurrent evaluation).
func stubEngine(t *testing.T, n, rounds int, topo topology.Provider, mut func(*AsyncConfig)) *AsyncEngine {
	t.Helper()
	ds, _ := buildTask(t, 8, 42)
	model := nn.NewMLP(64, 4, 4, vec.NewRNG(1))
	nodes := make([]core.Node, n)
	for i := range nodes {
		nodes[i] = &stubNode{id: i, model: model}
	}
	cfg := AsyncConfig{
		Config: Config{Rounds: rounds, EvalEvery: rounds, EvalNodes: 1, Parallelism: 1},
		Het:    Heterogeneity{ComputeSpread: 0.8, BandwidthSpread: 0.3, LatencySpread: 0.3, Seed: 11},
	}
	round := cfg.NominalRoundSec(1, len(stubPayload), 4)
	cfg.Churn = GenerateChurn(n, 0.25, round, float64(rounds)*round/2, 2*round, 5)
	if mut != nil {
		mut(&cfg)
	}
	return &AsyncEngine{Nodes: nodes, Topology: topo, TestSet: ds, Config: cfg}
}

func stubRegular(t *testing.T, n, d int) *topology.Static {
	t.Helper()
	g, err := topology.Regular(n, d, vec.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	return topology.NewStatic(g)
}

// withEventHook installs testEventHook for the duration of the test.
func withEventHook(t *testing.T, hook func(r *asyncRun, ev *Event)) {
	testEventHook = hook
	t.Cleanup(func() { testEventHook = nil })
}

// TestScopedRecheckLosesNoAggregation: leave/join re-check only the changed
// node's live neighbours. After every leave/join, the full-fleet readiness
// scan the engine used to run must find no waiting node that is ready —
// otherwise the scoped re-check would have skipped (or delayed) an
// aggregation. The row-floor counters must match a fleet scan after every
// event. Covers every blocking policy and epoch-rotated runs.
func TestScopedRecheckLosesNoAggregation(t *testing.T) {
	const n, rounds = 64, 12
	round := Config{}.NominalRoundSec(1, len(stubPayload), 4)
	cases := []struct {
		name   string
		policy AggregationPolicy
		epoch  bool
	}{
		{"barrier", BarrierPolicy{}, false},
		{"bounded", BoundedStalenessPolicy{K: 2, Tau: 1}, false},
		{"deadline", DeadlinePolicy{Factor: 1.2}, false},
		{"barrier-epoch", BarrierPolicy{}, true},
		{"bounded-adaptive-epoch", BoundedStalenessPolicy{K: 2, Tau: 1, AdaptiveTau: true}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var topo topology.Provider = stubRegular(t, n, 4)
			if tc.epoch {
				topo = topology.NewEpochProvider(topology.NewSeededDynamic(n, 4, 9), n, 2*round)
			}
			churn, waiting := 0, 0
			withEventHook(t, func(r *asyncRun, ev *Event) {
				checkFloorCounters(t, r, ev)
				if ev.Kind != EventLeave && ev.Kind != EventJoin {
					return
				}
				churn++
				for i := range r.nodes {
					if !r.nodes[i].waiting {
						continue
					}
					waiting++
					if r.ready(i) {
						t.Errorf("after %v of node %d at t=%.4f: waiting node %d is ready but was not aggregated",
							ev.Kind, ev.Node, ev.Time, i)
					}
				}
			})
			eng := stubEngine(t, n, rounds, topo, func(cfg *AsyncConfig) { cfg.Policy = tc.policy })
			res, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rounds) != rounds {
				t.Fatalf("emitted %d/%d rows", len(res.Rounds), rounds)
			}
			if churn == 0 || waiting == 0 {
				t.Fatalf("vacuous run: %d churn events, %d waiting nodes seen at them", churn, waiting)
			}
			if tc.epoch && res.Epochs < 2 {
				t.Fatalf("epoch run crossed no boundary (%d epochs)", res.Epochs)
			}
		})
	}
}

// checkFloorCounters compares the row-floor counters with a fleet scan.
func checkFloorCounters(t *testing.T, r *asyncRun, ev *Event) {
	t.Helper()
	want := make([]int, len(r.atIter))
	live := 0
	for i := range r.nodes {
		if st := &r.nodes[i]; st.live {
			live++
			want[min(st.iter, r.cfg.Rounds)]++
			if st.iter < r.emitted {
				t.Errorf("after %v at t=%.4f: live node %d at iteration %d below the emitted floor %d", ev.Kind, ev.Time, i, st.iter, r.emitted)
			}
		}
	}
	if live != r.liveCount {
		t.Errorf("after %v at t=%.4f: liveCount %d, scan counts %d", ev.Kind, ev.Time, r.liveCount, live)
	}
	for k := range want {
		if want[k] != r.atIter[k] {
			t.Errorf("after %v at t=%.4f: atIter[%d] = %d, scan counts %d", ev.Kind, ev.Time, k, r.atIter[k], want[k])
			return
		}
	}
}

// TestChurnWorkPerEventFlat is the serial loop's complexity check (not a
// timing test): the node rows touched per leave/join — live-view rows
// rebuilt, neighbours re-checked, floor counters stepped — must not grow
// with the fleet. A fleet-wide scan or rebuild per event would grow it 8×
// from 1k to 8k nodes.
func TestChurnWorkPerEventFlat(t *testing.T) {
	const d, rounds = 6, 4
	type work struct{ perChurn, perEvent float64 }
	measure := func(n int) work {
		var (
			first                       = true
			lastTouched, lastRows       int
			churn, events               int
			churnWork, allWork, offRows int
		)
		withEventHook(t, func(r *asyncRun, ev *Event) {
			// Apply any queued live-view patch inside the event that queued it.
			r.graph()
			rows := r.topo.(interface{ RowsBuilt() int }).RowsBuilt()
			if !first {
				w := r.touched - lastTouched + rows - lastRows
				events++
				allWork += w
				if ev.Kind == EventLeave || ev.Kind == EventJoin {
					churn++
					churnWork += w
				} else {
					offRows += rows - lastRows
				}
			}
			first = false
			lastTouched, lastRows = r.touched, rows
		})
		res, err := stubEngine(t, n, rounds, stubRegular(t, n, d), nil).Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rounds) != rounds || churn == 0 {
			t.Fatalf("n=%d: %d/%d rows, %d churn events", n, len(res.Rounds), rounds, churn)
		}
		if offRows != 0 {
			t.Fatalf("n=%d: %d live-view rows rebuilt outside leave/join events", n, offRows)
		}
		w := work{float64(churnWork) / float64(churn), float64(allWork) / float64(events)}
		t.Logf("n=%d: %d churn events, %.1f rows per churn event; %d events, %.2f rows per event", n, churn, w.perChurn, events, w.perEvent)
		return w
	}
	small, large := measure(1024), measure(8192)
	for _, c := range []struct {
		name         string
		small, large float64
	}{{"per leave/join", small.perChurn, large.perChurn}, {"per event", small.perEvent, large.perEvent}} {
		if ratio := c.large / c.small; ratio > 1.5 {
			t.Errorf("rows touched %s grew %.2f× from 1024 to 8192 nodes (%.1f → %.1f)", c.name, ratio, c.small, c.large)
		}
	}
	if bound := float64(2*(1+d+d*d) + 2*d + 8); large.perChurn > bound {
		t.Errorf("%.1f rows touched per leave/join at 8192 nodes, want O(degree²) ≤ %.0f", large.perChurn, bound)
	}
}
