package simulation

import (
	"bytes"
	"testing"

	"repro/internal/codec"
	"repro/internal/trace"
)

// TestGatedBatchWidth pins the single-core gate's truth table: batching
// auto-disables only when a batch was requested, the host is GOMAXPROCS=1,
// and the caller did not force it.
func TestGatedBatchWidth(t *testing.T) {
	cases := []struct {
		requested  int
		force      bool
		gomaxprocs int
		want       int
	}{
		{0, false, 1, 0},   // nothing requested: nothing to gate
		{0, false, 8, 0},
		{1, false, 1, 1},   // width 1 is already per-node dispatch
		{8, false, 1, 0},   // the gate's purpose: 1-core host disables
		{8, true, 1, 8},    // ... unless forced
		{8, false, 2, 8},   // multi-core hosts keep the request
		{8, true, 2, 8},
		{2, false, 1, 0},
		{2, false, 4, 2},
	}
	for _, tc := range cases {
		if got := gatedBatchWidth(tc.requested, tc.force, tc.gomaxprocs); got != tc.want {
			t.Errorf("gatedBatchWidth(%d, %v, %d) = %d, want %d",
				tc.requested, tc.force, tc.gomaxprocs, got, tc.want)
		}
	}
}

// TestAggregateBatchEngineGoldenParity is the aggregate mirror of
// TestShareBatchEngineGoldenParity: a 64-node async run with AggregateBatch=8
// must byte-match the per-node path — identical binary trace, byte ledger,
// simulated time, and result rows — for all four algorithms crossed with all
// four codecs. Non-JWINS fleets never enter the aggregate queue; running them
// locks in that the knob cannot perturb their schedule either. A second JWINS
// arm turns ShareBatch and AggregateBatch on together, the production
// configuration, where flushAgg re-enqueues deferred trains into the share
// queue.
func TestAggregateBatchEngineGoldenParity(t *testing.T) {
	algos := []struct {
		name string
		kind algo
	}{
		{"full-sharing", algoFull},
		{"random-sampling", algoRandom},
		{"jwins", algoJWINS},
		{"choco", algoChoco},
	}
	codecs := []struct {
		name string
		fc   func(i int) codec.FloatCodec
	}{
		{"raw32", func(int) codec.FloatCodec { return codec.Raw32{} }},
		{"flate32", func(int) codec.FloatCodec { return codec.PlaneFlate32{} }},
		{"xor32", func(int) codec.FloatCodec { return codec.XOR32{} }},
		{"qsgd", func(i int) codec.FloatCodec { return codec.NewQSGD(64, uint64(4000+i)) }},
	}
	for _, al := range algos {
		for _, cd := range codecs {
			al, cd := al, cd
			t.Run(al.name+"/"+cd.name, func(t *testing.T) {
				refTrace, refRes := goldenRun(t, al.kind, cd.fc, 0, 0)
				batTrace, batRes := goldenRun(t, al.kind, cd.fc, 0, 8)
				assertGoldenEqual(t, refTrace, refRes, batTrace, batRes)
			})
		}
	}
	// Both pipelines at once on the JWINS fleet, all codecs.
	for _, cd := range codecs {
		cd := cd
		t.Run("jwins-share+agg/"+cd.name, func(t *testing.T) {
			refTrace, refRes := goldenRun(t, algoJWINS, cd.fc, 0, 0)
			batTrace, batRes := goldenRun(t, algoJWINS, cd.fc, 8, 8)
			assertGoldenEqual(t, refTrace, refRes, batTrace, batRes)
		})
	}
}

func assertGoldenEqual(t *testing.T, refTrace []byte, refRes *Result, batTrace []byte, batRes *Result) {
	t.Helper()
	if !bytes.Equal(refTrace, batTrace) {
		t.Fatalf("batched run's binary trace differs from per-node path (%d vs %d bytes)",
			len(batTrace), len(refTrace))
	}
	if refRes.TotalBytes != batRes.TotalBytes || refRes.ModelBytes != batRes.ModelBytes ||
		refRes.MetaBytes != batRes.MetaBytes {
		t.Fatalf("ledger differs: batched (%d,%d,%d), per-node (%d,%d,%d)",
			batRes.TotalBytes, batRes.ModelBytes, batRes.MetaBytes,
			refRes.TotalBytes, refRes.ModelBytes, refRes.MetaBytes)
	}
	if refRes.SimTime != batRes.SimTime {
		t.Fatalf("simulated time differs: batched %v, per-node %v", batRes.SimTime, refRes.SimTime)
	}
	if len(refRes.Rounds) != len(batRes.Rounds) {
		t.Fatalf("row counts differ: batched %d, per-node %d", len(batRes.Rounds), len(refRes.Rounds))
	}
	for i := range refRes.Rounds {
		a, b := refRes.Rounds[i], batRes.Rounds[i]
		if !sameFloat(a.TrainLoss, b.TrainLoss) || !sameFloat(a.TestLoss, b.TestLoss) ||
			!sameFloat(a.TestAcc, b.TestAcc) || !sameFloat(a.MeanAlpha, b.MeanAlpha) {
			t.Fatalf("row %d differs: batched (%v,%v,%v,%v), per-node (%v,%v,%v,%v)",
				i, b.TrainLoss, b.TestLoss, b.TestAcc, b.MeanAlpha,
				a.TrainLoss, a.TestLoss, a.TestAcc, a.MeanAlpha)
		}
	}
}

// TestAggregateBatchParallelismInvariance: the aggregate-batched engine keeps
// the parallelism invariant — identical trace, ledger, and rows at P ∈ {1, 2,
// NumCPU} — including under churn and stragglers, where queued aggregates mix
// with per-node dispatches and deferred trains re-enter the share queue.
func TestAggregateBatchParallelismInvariance(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*AsyncConfig)
	}{
		{"agg-only", func(cfg *AsyncConfig) {
			cfg.AggregateBatch = 8
			cfg.ShareBatchForce = true
		}},
		{"share+agg-het+churn+drops", func(cfg *AsyncConfig) {
			cfg.ShareBatch = 4
			cfg.AggregateBatch = 4
			cfg.ShareBatchForce = true
			cfg.Het = Heterogeneity{ComputeSpread: 0.5, BandwidthSpread: 0.4, LatencySpread: 0.2, Seed: 5}
			cfg.Churn = GenerateChurn(16, 0.25, 0.02, 0.2, 0.1, 77)
			cfg.DropProb = 0.1
			cfg.FaultSeed = 3
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ref := captureAsyncRun(t, 16, 10, 1, tc.mut)
			if len(ref.trace) == 0 {
				t.Fatal("no events traced")
			}
			for _, p := range parallelismLevels()[1:] {
				got := captureAsyncRun(t, 16, 10, p, tc.mut)
				assertRunsIdentical(t, tc.name, ref, got, p)
			}
		})
	}
}

// TestAggregateBatchRecordReplayCross: record→replay byte equality must hold
// across the aggregate-batching boundary in both directions, because
// AggregateBatch never shapes the schedule, only the compute dispatch.
func TestAggregateBatchRecordReplayCross(t *testing.T) {
	const rounds = 8
	mut := func(batch int) func(*AsyncConfig) {
		return func(cfg *AsyncConfig) {
			cfg.AggregateBatch = batch
			cfg.ShareBatchForce = true
			cfg.Het = Heterogeneity{ComputeSpread: 0.4, BandwidthSpread: 0.3, Seed: 5}
			cfg.Churn = GenerateChurn(8, 0.25, 0.02, 0.2, 0.1, 77)
			cfg.DropProb = 0.1
			cfg.FaultSeed = 3
		}
	}
	for _, dir := range []struct {
		name               string
		recBatch, repBatch int
	}{
		{"record-pernode-replay-batched", 0, 8},
		{"record-batched-replay-pernode", 8, 0},
	} {
		dir := dir
		t.Run(dir.name, func(t *testing.T) {
			recorded, recRes := recordedRun(t, rounds, mut(dir.recBatch))
			rp, err := trace.NewReplayer(recorded)
			if err != nil {
				t.Fatal(err)
			}
			rec2 := trace.NewRecorder(recorded.Header)
			eng := asyncEngineFor(t, algoJWINS, rounds, func(cfg *AsyncConfig) {
				mut(dir.repBatch)(cfg)
				cfg.Het = Heterogeneity{}
				cfg.Churn = nil
				cfg.DropProb = 0
				cfg.Replay = rp
				cfg.Record = rec2
			})
			repRes, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			var a, b bytes.Buffer
			if err := trace.WriteBinary(&a, recorded); err != nil {
				t.Fatal(err)
			}
			if err := trace.WriteBinary(&b, rec2.Trace()); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("replay trace differs from recording (%d vs %d bytes)", b.Len(), a.Len())
			}
			if recRes.TotalBytes != repRes.TotalBytes || recRes.SimTime != repRes.SimTime {
				t.Fatalf("replay result differs: bytes %d vs %d, time %v vs %v",
					repRes.TotalBytes, recRes.TotalBytes, repRes.SimTime, recRes.SimTime)
			}
		})
	}
}

// TestDecodeCacheEngineParity: the fleet-shared decoded-payload cache must be
// purely an allocation/compute optimization — a run with the cache must match
// a NoDecodeCache run event for event, row for row, under heterogeneity,
// churn, drops, and both batch pipelines, at serial and parallel dispatch.
func TestDecodeCacheEngineParity(t *testing.T) {
	muts := []struct {
		name string
		mut  func(*AsyncConfig)
	}{
		{"plain", nil},
		{"batched-churn-drops", func(cfg *AsyncConfig) {
			cfg.ShareBatch = 4
			cfg.AggregateBatch = 4
			cfg.ShareBatchForce = true
			cfg.Het = Heterogeneity{ComputeSpread: 0.5, BandwidthSpread: 0.4, Seed: 5}
			cfg.Churn = GenerateChurn(16, 0.25, 0.02, 0.2, 0.1, 77)
			cfg.DropProb = 0.1
			cfg.FaultSeed = 3
		}},
	}
	for _, tc := range muts {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range parallelismLevels() {
				off := captureAsyncRun(t, 16, 10, p, func(cfg *AsyncConfig) {
					if tc.mut != nil {
						tc.mut(cfg)
					}
					cfg.noDecodeCache = true
				})
				on := captureAsyncRun(t, 16, 10, p, tc.mut)
				assertRunsIdentical(t, tc.name+"/cache-on-vs-off", off, on, p)
			}
		})
	}
}
