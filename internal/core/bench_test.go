package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/model"
	"repro/internal/network"
	"repro/internal/perfmodel"
	"repro/internal/perfmodel/roofline"
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

// replicaStepN is how many Steps one BenchmarkReplicaStep op takes.
const replicaStepN = 1000

// decodeReplica builds a gpt2 TP2 replica priced by the roofline backend
// rb, serving 16 requests that arrive together with 16-token prompts and
// 1008-token outputs: one prefill step, then more than replicaStepN
// decode steps of the whole batch. Replicas built over one backend
// share its pricing caches, so a second replica steps warm.
func decodeReplica(tb testing.TB, rb *roofline.Backend) *Simulator {
	tb.Helper()
	tp, err := network.Build(network.Tensor, 2, 0, config.DefaultLink(), config.DefaultLink())
	if err != nil {
		tb.Fatal(err)
	}
	opts := Options{
		Model:   model.MustLookup("gpt2"),
		Topo:    tp,
		Backend: func() (perfmodel.Backend, error) { return rb, nil },
	}
	sim, err := New(opts, workload.UniformBatch(16, 16, 1008))
	if err != nil {
		tb.Fatal(err)
	}
	return sim
}

// newDecodeBackend returns a roofline backend for decodeReplica, warmed
// by one whole replica run.
func newDecodeBackend(tb testing.TB) *roofline.Backend {
	tb.Helper()
	tp, err := network.Build(network.Tensor, 2, 0, config.DefaultLink(), config.DefaultLink())
	if err != nil {
		tb.Fatal(err)
	}
	hw, err := perfmodel.LookupHardware("a100")
	if err != nil {
		tb.Fatal(err)
	}
	rb, err := roofline.New(perfmodel.Config{Model: model.MustLookup("gpt2"), Topo: tp}, hw)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := decodeReplica(tb, rb).Run(); err != nil {
		tb.Fatal(err)
	}
	return rb
}

// BenchmarkReplicaStep is one scheduler step of a warm roofline replica
// in steady decode: each op steps a fresh gpt2 TP2 replica (over a
// backend whose pricing caches are already warm) replicaStepN times, so
// ns/op divided by replicaStepN is the host cost of one Step, and a
// single -benchtime=1x op lasts long enough to time.
func BenchmarkReplicaStep(b *testing.B) {
	rb := newDecodeBackend(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sim := decodeReplica(b, rb)
		b.StartTimer()
		for j := 0; j < replicaStepN; j++ {
			if done, err := sim.Step(); err != nil || done {
				b.Fatalf("step %d: done=%v err=%v", j, done, err)
			}
		}
	}
}
