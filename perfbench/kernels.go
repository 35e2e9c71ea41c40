package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dwt"
	"repro/internal/sparsify"
)

// kernels holds median per-call host times of the layer kernels, timed on
// parameters, accumulators and payloads captured from a traced run. The
// wavelet and top-k kernels stay zero on fleets that never run them.
type kernels struct {
	DWTForwardUS, DWTInverseUS float64
	TopKUS                     float64
	EncodeUS, DecodeUS         float64
}

// kernelSamples is how many nodes' captured state the kernels cycle over.
const kernelSamples = 8

// kernelBudget is the host time spent timing each kernel.
const kernelBudget = 150 * time.Millisecond

// timeKernels times the kernels on the first nodes that shared a payload,
// checking each kernel's output on the way: the inverse transform must
// reconstruct its input, top-k must return k ascending indices, and
// re-encoding a decoded payload must reproduce its bytes.
func timeKernels(nodes []*timedNode) (*kernels, error) {
	var sample []*timedNode
	for _, n := range nodes {
		if n.lastPayload != nil {
			sample = append(sample, n)
			if len(sample) == kernelSamples {
				break
			}
		}
	}
	if len(sample) == 0 {
		return nil, fmt.Errorf("kernels: no node shared a payload")
	}
	k := &kernels{}
	if err := timeCodec(k, sample); err != nil {
		return nil, err
	}
	var jw []*core.JWINSNode
	for _, n := range sample {
		if j, ok := n.Node.(*core.JWINSNode); ok {
			jw = append(jw, j)
		}
	}
	if len(jw) > 0 {
		if err := timeWavelet(k, jw); err != nil {
			return nil, err
		}
	}
	return k, nil
}

func timeCodec(k *kernels, sample []*timedNode) error {
	payloads := make([][]byte, len(sample))
	svs := make([]codec.SparseVector, len(sample))
	modes := make([]codec.IndexMode, len(sample))
	for i, n := range sample {
		// Every workload sends flate32 payloads; the byte-exact re-encode
		// below fails on any other codec.
		p := n.lastPayload
		payloads[i], modes[i] = p, codec.IndexMode(p[0])
		if err := codec.DecodeSparseInto(&svs[i], p); err != nil {
			return fmt.Errorf("kernels: decoding captured payload: %w", err)
		}
		re, _, err := codec.EncodeSparse(svs[i], modes[i], codec.PlaneFlate32{})
		if err != nil {
			return fmt.Errorf("kernels: re-encoding captured payload: %w", err)
		}
		if !bytes.Equal(re, p) {
			return fmt.Errorf("kernels: re-encoded payload differs from the captured one")
		}
	}
	var dec codec.SparseVector
	var err error
	i := 0
	k.DecodeUS = medianCallUS(func() {
		if e := codec.DecodeSparseInto(&dec, payloads[i%len(payloads)]); e != nil {
			err = e
		}
		i++
	})
	var es codec.EncodeScratch
	i = 0
	k.EncodeUS = medianCallUS(func() {
		j := i % len(svs)
		if _, _, e := codec.EncodeSparseWith(&es, svs[j], modes[j], codec.PlaneFlate32{}); e != nil {
			err = e
		}
		i++
	})
	return err
}

func timeWavelet(k *kernels, jw []*core.JWINSNode) error {
	dim := jw[0].Model().ParamCount()
	w, err := dwt.ByName(core.DefaultJWINSConfig().Wavelet)
	if err != nil {
		return err
	}
	plan, err := dwt.PlanFor(dim, w, core.DefaultJWINSConfig().Levels)
	if err != nil {
		return err
	}
	params := make([][]float64, len(jw))
	coeffs := make([][]float64, len(jw))
	back := make([]float64, dim)
	var s dwt.Scratch
	for i, j := range jw {
		params[i] = make([]float64, dim)
		j.Model().CopyParams(params[i])
		coeffs[i] = make([]float64, plan.CoeffLen())
		plan.Forward(params[i], coeffs[i], &s)
		plan.Inverse(coeffs[i], back, &s)
		for d := range back {
			if math.Abs(back[d]-params[i][d]) > 1e-9*(1+math.Abs(params[i][d])) {
				return fmt.Errorf("kernels: inverse DWT does not reconstruct its input at %d", d)
			}
		}
	}
	out := make([]float64, plan.CoeffLen())
	i := 0
	k.DWTForwardUS = medianCallUS(func() {
		plan.Forward(params[i%len(params)], out, &s)
		i++
	})
	i = 0
	k.DWTInverseUS = medianCallUS(func() {
		plan.Inverse(coeffs[i%len(coeffs)], back, &s)
		i++
	})

	budgets := make([]int, len(jw))
	for i, j := range jw {
		cd := j.CoeffDim()
		budgets[i] = min(max(int(math.Round(j.LastAlpha*float64(cd))), 1), cd)
		sel := sparsify.TopKIndices(j.Accumulator(), budgets[i])
		if len(sel) != budgets[i] || !sort.IntsAreSorted(sel) {
			return fmt.Errorf("kernels: top-%d returned %d indices or an unsorted set", budgets[i], len(sel))
		}
	}
	var ts sparsify.TopKScratch
	i = 0
	k.TopKUS = medianCallUS(func() {
		j := i % len(jw)
		sparsify.TopKIndicesWith(&ts, jw[j].Accumulator(), budgets[j])
		i++
	})
	return nil
}

// medianCallUS runs fn in batches sized to about a millisecond for
// kernelBudget and returns the median batch's microseconds per call.
func medianCallUS(fn func()) float64 {
	fn() // warm scratch buffers
	reps := 1
	for {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			fn()
		}
		if time.Since(t0) >= time.Millisecond || reps >= 1<<20 {
			break
		}
		reps *= 2
	}
	var perCall []float64
	start := time.Now()
	for time.Since(start) < kernelBudget || len(perCall) < 5 {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			fn()
		}
		perCall = append(perCall, float64(time.Since(t0).Nanoseconds())/1e3/float64(reps))
	}
	return median(perCall)
}
