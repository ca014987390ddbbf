package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/model"
	"repro/internal/network"
	"repro/internal/sched"
	"repro/internal/workload"
)

// BenchmarkSubBatchInterleave runs the paper's NPU+PIM system with two
// interleaved sub-batches: gpt3-7b on 8 NPUs (TP4 x PP2) with local PIM,
// Orca batching and paged KV, serving 256 ShareGPT requests at 4/s. One
// op is a whole simulation, so every iteration goes through sub-batch
// partitioning, the engine phase, the sub-batch interleaver, graph
// conversion and the event simulation.
func BenchmarkSubBatchInterleave(b *testing.B) {
	tp, err := network.Build(network.Hybrid, 8, 2, config.DefaultLink(), config.DefaultLink())
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{
		Model:   model.MustLookup("gpt3-7b"),
		Topo:    tp,
		NPU:     config.DefaultNPU(),
		PIM:     config.DefaultPIM(),
		PIMMode: PIMLocal,
		Sched:   sched.Config{Policy: sched.Orca, SubBatches: 2},
		Reuse:   ReuseAll(),
	}
	reqs, err := workload.PoissonTrace(workload.ShareGPT(), 256, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim, err := New(opts, reqs)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := sim.Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Finished) != len(reqs) {
			b.Fatalf("finished %d of %d", len(rep.Finished), len(reqs))
		}
	}
}
