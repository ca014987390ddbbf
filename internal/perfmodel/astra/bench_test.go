package astra

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/model"
	"repro/internal/network"
	"repro/internal/perfmodel"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// BenchmarkAstraIteration prices warmed decode iterations of the
// paper's NPU+PIM system — gpt3-7b on 8 NPUs as TP4 x PP2, a PIM device
// beside each NPU, 24 requests in two interleaved sub-batches — through
// the whole astra pipeline: engine-cache hits, graph conversion and
// event simulation. With model-redundancy reuse on, each pipeline stage
// converts one block and the executor time-shifts the other 15; with it
// off, all 32 blocks are run through the engines, converted and
// simulated, the paper's "conventional simulator" baseline. Each op
// prices one of two batches in turn, of 24 and of 22 requests, so
// consecutive iterations share a graph shape but not their durations:
// every op rewrites the held graph's durations and simulates it over
// the compiled plan. (Lengthening every context by 64 tokens instead
// leaves this batch's durations unchanged.)
//
// The steady case decodes the 24-request batch instead, one token per
// op, as a serving run does between joins and completions: each op
// takes the steady decode path, repricing only attention, and skips
// conversion and execution whenever the interleaved block's work
// repeats. Contexts restart before the model's length; a warm-up pass
// over every context fills the engine caches first.
func BenchmarkAstraIteration(b *testing.B) {
	topo, err := network.Build(network.Hybrid, 8, 2, config.DefaultLink(), config.DefaultLink())
	if err != nil {
		b.Fatal(err)
	}
	var reqs []workload.Request
	for i := range 24 {
		reqs = append(reqs, workload.Request{ID: i, InputLen: 64 + 37*i, OutputLen: 64})
	}
	for _, reuse := range []bool{true, false} {
		b.Run(fmt.Sprintf("reuse=%v", reuse), func(b *testing.B) {
			cfg := perfmodel.Config{
				Model:   model.MustLookup("gpt3-7b"),
				Topo:    topo,
				PIMMode: perfmodel.PIMLocal,
				Reuse:   perfmodel.ReuseOptions{ModelRedundancy: reuse, ComputationReuse: true},
			}
			be, err := New(cfg, Options{NPU: config.DefaultNPU(), PIM: config.DefaultPIM()})
			if err != nil {
				b.Fatal(err)
			}
			sc := sched.Config{SubBatches: 2, SkipPrefill: true}
			batches := [2]*sched.Batch{firstSubBatched(b, cfg, reqs, sc), firstSubBatched(b, cfg, reqs[:22], sc)}
			// Two warm-up rounds: the engine caches fill on the first, and
			// the reused graph's node arena settles by the second, so even
			// -benchtime=1x measures the steady state.
			var lat [2]simtime.Duration
			for range 2 {
				for i, batch := range batches {
					if lat[i], _, err = be.IterationLatency(batch); err != nil {
						b.Fatal(err)
					}
				}
			}
			if lat[0] == lat[1] {
				b.Fatal("the two batches price alike")
			}
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				if _, _, err := be.IterationLatency(batches[i]); err != nil {
					b.Fatal(err)
				}
				i ^= 1
			}
		})
	}
	b.Run("steady", func(b *testing.B) {
		cfg := perfmodel.Config{
			Model:   model.MustLookup("gpt3-7b"),
			Topo:    topo,
			PIMMode: perfmodel.PIMLocal,
			Reuse:   perfmodel.ReuseAll(),
		}
		be, err := New(cfg, Options{NPU: config.DefaultNPU(), PIM: config.DefaultPIM()})
		if err != nil {
			b.Fatal(err)
		}
		batch := firstSubBatched(b, cfg, reqs, sched.Config{SubBatches: 2, SkipPrefill: true})
		base := make([]int, len(batch.Seqs))
		longest := 0
		for i, q := range batch.Seqs {
			base[i] = q.Context
			longest = max(longest, q.TotalLen())
		}
		steps := cfg.Model.MaxSeqLen - longest + 1 // contexts base+0 .. base+steps-1
		step := 0
		decode := func() {
			for i := range batch.Seqs {
				batch.Seqs[i].Context = base[i] + step
			}
			if _, _, err := be.IterationLatency(batch); err != nil {
				b.Fatal(err)
			}
			step = (step + 1) % steps
		}
		for range steps {
			decode()
		}
		if be.steadyStep(batch) == nil {
			b.Fatal("the decoded batch does not take the steady path")
		}
		b.ReportAllocs()
		for b.Loop() {
			decode()
		}
	})
}

// BenchmarkAstraRun serves a short trace from a cold start: a fresh
// backend for the paper's NPU+PIM system (as in BenchmarkAstraIteration)
// prices every iteration of 16 requests, from their prefills to their
// last tokens. Unlike the warm iteration above it covers the engine
// cache misses, since decode attention meets a new context length on
// almost every iteration.
func BenchmarkAstraRun(b *testing.B) {
	topo, err := network.Build(network.Hybrid, 8, 2, config.DefaultLink(), config.DefaultLink())
	if err != nil {
		b.Fatal(err)
	}
	cfg := perfmodel.Config{
		Model:   model.MustLookup("gpt3-7b"),
		Topo:    topo,
		PIMMode: perfmodel.PIMLocal,
		Reuse:   perfmodel.ReuseAll(),
	}
	var reqs []workload.Request
	for i := range 16 {
		reqs = append(reqs, workload.Request{ID: i, InputLen: 64 + 37*i, OutputLen: 48 + 5*i})
	}
	b.ReportAllocs()
	for b.Loop() {
		be, err := New(cfg, Options{NPU: config.DefaultNPU(), PIM: config.DefaultPIM()})
		if err != nil {
			b.Fatal(err)
		}
		s := newScheduler(b, cfg, reqs, sched.Config{SubBatches: 2})
		for {
			batch, ok := s.Next()
			if !ok {
				break
			}
			lat, _, err := be.IterationLatency(batch)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Complete(batch, lat); err != nil {
				b.Fatal(err)
			}
		}
	}
}
