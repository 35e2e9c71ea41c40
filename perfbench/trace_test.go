package main

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
)

// shrunk is a small version of a workload that keeps its engine, algorithm,
// policy, churn and evaluation settings.
func shrunk(wl workload) size {
	if wl.Nodes <= 96 {
		return size{Nodes: 8, Rounds: 3}
	}
	return size{Nodes: 64, Rounds: 3}
}

// sameScalars reports whether every numeric and boolean field of two
// structs matches bit for bit (NaN equals NaN), skipping the named fields
// and any field that is not a scalar.
func sameScalars(a, b any, skip ...string) (string, bool) {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		name := va.Type().Field(i).Name
		if contains(skip, name) {
			continue
		}
		fa, fb := va.Field(i), vb.Field(i)
		switch fa.Kind() {
		case reflect.Float64:
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return name, false
			}
		case reflect.Int, reflect.Int64:
			if fa.Int() != fb.Int() {
				return name, false
			}
		case reflect.Bool:
			if fa.Bool() != fb.Bool() {
				return name, false
			}
		}
	}
	return "", true
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}

// TestTracedRunMatchesUntraced guards the tracing seam: on a shrunk copy of
// every workload, the decorated fleet on the hand-assembled engine must
// reproduce experiments.Run row for row, at parallelism 1 and above.
// RoundMetrics.MeanAlpha is excluded: the engines read it from the concrete
// *core.JWINSNode, which the timing decorator hides, so traced rows carry
// NaN there.
func TestTracedRunMatchesUntraced(t *testing.T) {
	const seed = 7
	for _, wl := range workloads {
		wl, sz := wl, shrunk(wl)
		t.Run(wl.Name, func(t *testing.T) {
			w, err := wl.synth(sz.Nodes, seed)
			if err != nil {
				t.Fatal(err)
			}
			spec := wl.spec(w, sz.Rounds, seed)
			ref, err := experiments.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if math.IsNaN(ref.SimTime) || ref.SimTime <= 0 {
				t.Fatalf("untraced sim time %v", ref.SimTime)
			}
			for _, p := range []int{1, 3} {
				tr, err := runTraced(wl, sz, seed, p)
				if err != nil {
					t.Fatal(err)
				}
				if f, ok := sameScalars(*ref, *tr.res); !ok {
					t.Fatalf("parallelism %d: result field %s differs", p, f)
				}
				if len(ref.Rounds) != len(tr.res.Rounds) {
					t.Fatalf("parallelism %d: %d rows, want %d", p, len(tr.res.Rounds), len(ref.Rounds))
				}
				for i := range ref.Rounds {
					if f, ok := sameScalars(ref.Rounds[i], tr.res.Rounds[i], "MeanAlpha"); !ok {
						t.Fatalf("parallelism %d: row %d field %s differs", p, i, f)
					}
				}
				l := tr.layers
				iters := int64(sz.Nodes * sz.Rounds)
				if l.TrainCalls == 0 || l.ShareCalls == 0 || l.AggCalls == 0 || l.EvalCalls == 0 {
					t.Fatalf("parallelism %d: a layer was never timed: %+v", p, l)
				}
				if !spec.Async && (l.TrainCalls != iters || l.AggCalls != iters) {
					t.Fatalf("synchronous run timed %d trains and %d aggregates, want %d each", l.TrainCalls, l.AggCalls, iters)
				}
				if spec.Async {
					if l.DecodeHits == 0 {
						t.Fatalf("parallelism %d: no decode-cache hits on the async path", p)
					}
					if l.Events == 0 {
						t.Fatalf("parallelism %d: no events observed", p)
					}
				}
				if p == 1 && l.spans() > tr.runS {
					t.Fatalf("layer spans %.4fs exceed the serial wall time %.4fs", l.spans(), tr.runS)
				}
			}
		})
	}
}

// TestTimedNodeForwardsProbedInterfaces checks the optional interfaces the
// engines probe for survive the decorator: without SetDecodeCache the
// fleet-shared decode cache silently turns off, and without LocalStepCount
// the simulated time model assumes one local step.
func TestTimedNodeForwardsProbedInterfaces(t *testing.T) {
	w, err := experiments.ScaleWorkload(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []experiments.Algo{experiments.AlgoJWINS, experiments.AlgoFull} {
		nodes, err := experiments.BuildFleet(w, experiments.AlgoSpec{Kind: kind}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if w.Opts.LocalSteps == 1 {
			t.Fatal("the workload's local steps match the fallback; the check would prove nothing")
		}
		tn := &timedNode{Node: nodes[0]}
		var c core.DecodeCache
		tn.SetDecodeCache(&c)
		if tn.cache != &c {
			t.Fatalf("%s: decode cache not forwarded", kind)
		}
		if got := tn.LocalStepCount(); got != w.Opts.LocalSteps {
			t.Fatalf("%s: LocalStepCount %d, want %d", kind, got, w.Opts.LocalSteps)
		}
	}
}

// TestKernelsRunOnCapturedState times the kernels briefly on a shrunk traced
// run of each algorithm and checks which of them ran.
func TestKernelsRunOnCapturedState(t *testing.T) {
	for _, name := range []string{"scale-jwins2048", "scale-fullchurn4096"} {
		wl, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := runTraced(wl, shrunk(wl), 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		k, err := timeKernels(tr.nodes)
		if err != nil {
			t.Fatal(err)
		}
		if k.EncodeUS <= 0 || k.DecodeUS <= 0 {
			t.Fatalf("%s: codec kernels not timed: %+v", name, k)
		}
		wavelets := k.DWTForwardUS > 0 && k.DWTInverseUS > 0 && k.TopKUS > 0
		if jwins := wl.spec(nil, 1, 0).Algo.Kind == experiments.AlgoJWINS; wavelets != jwins {
			t.Fatalf("%s: wavelet and top-k kernels timed = %v, want %v", name, wavelets, jwins)
		}
	}
}
