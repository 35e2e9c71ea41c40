package main

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/simulation"
)

// workload is one named benchmark input: a synthesized task plus the run
// specification users would hand to experiments.Run. Nodes and Rounds are
// the benchmark's sizes; tests shrink them through size. Why each workload
// exists is recorded in BENCHMARK.json and README.md.
type workload struct {
	Name   string
	Nodes  int
	Rounds int
	synth  func(nodes int, seed uint64) (*experiments.Workload, error)
	spec   func(w *experiments.Workload, rounds int, seed uint64) experiments.RunSpec
}

// size is a workload's fleet size and iteration budget.
type size struct{ Nodes, Rounds int }

func (wl workload) full() size { return size{wl.Nodes, wl.Rounds} }

var workloads = []workload{
	{
		Name:   "paper-movielens96",
		Nodes:  96,
		Rounds: 10,
		synth: func(nodes int, seed uint64) (*experiments.Workload, error) {
			return experiments.NewWorkload("movielens", experiments.Paper, nodes, seed)
		},
		spec: func(w *experiments.Workload, rounds int, seed uint64) experiments.RunSpec {
			return experiments.RunSpec{
				Workload: w,
				Algo:     experiments.AlgoSpec{Kind: experiments.AlgoJWINS},
				Rounds:   rounds,
				Seed:     seed,
			}
		},
	},
	{
		Name:   "scale-jwins2048",
		Nodes:  2048,
		Rounds: 10,
		synth:  experiments.ScaleWorkload,
		spec: func(w *experiments.Workload, rounds int, seed uint64) experiments.RunSpec {
			return experiments.RunSpec{
				Workload:   w,
				Algo:       experiments.AlgoSpec{Kind: experiments.AlgoJWINS},
				Rounds:     rounds,
				Seed:       seed,
				Async:      true, // default policy: the local barrier
				Het:        simulation.Heterogeneity{ComputeSpread: 0.3},
				EvalSample: 64,
			}
		},
	},
	{
		Name:   "scale-fullchurn4096",
		Nodes:  4096,
		Rounds: 4,
		synth:  experiments.ScaleWorkload,
		spec: func(w *experiments.Workload, rounds int, seed uint64) experiments.RunSpec {
			return experiments.RunSpec{
				Workload:      w,
				Algo:          experiments.AlgoSpec{Kind: experiments.AlgoFull},
				Rounds:        rounds,
				Seed:          seed,
				Async:         true,
				Het:           simulation.Heterogeneity{ComputeSpread: 0.5},
				ChurnFraction: 0.25,
				EvalSample:    64,
			}
		},
	},
}

func workloadByName(name string) (workload, error) {
	for _, wl := range workloads {
		if wl.Name == name {
			return wl, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
