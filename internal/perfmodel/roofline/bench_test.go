package roofline

import (
	"testing"

	"repro/internal/model"
	"repro/internal/sched"
)

// BenchmarkRooflineIteration prices one iteration of gpt2 on two
// tensor-parallel rtx3090-class devices with warm caches: the per-step
// cost an analytical replica pays in a cluster run, where almost every
// batch shape and attention context has been priced before. Cases: a
// single decode sequence, 16 decode sequences, and a mixed batch of two
// prefill slices (one whole prompt, one chunk after a cached prefix)
// beside six decode sequences.
//
// One op prices the batch itersPerOp times, so ns/op divided by 1000 is
// the cost of one iteration, and CI's -benchtime=1x measures
// microseconds rather than the timer's own overhead.
func BenchmarkRooflineIteration(b *testing.B) {
	const itersPerOp = 1000
	decode := func(n int) []model.Seq {
		seqs := make([]model.Seq, n)
		for i := range seqs {
			seqs[i] = model.Seq{ReqID: i, NewTokens: 1, Context: 100 + 37*i, Phase: model.Generation}
		}
		return seqs
	}
	mixed := append([]model.Seq{
		{ReqID: 100, NewTokens: 256, Phase: model.Initiation},
		{ReqID: 101, NewTokens: 128, Context: 384, Phase: model.Initiation},
	}, decode(6)...)
	for _, c := range []struct {
		name string
		seqs []model.Seq
	}{
		{"decode=1", decode(1)},
		{"decode=16", decode(16)},
		{"mixed", mixed},
	} {
		b.Run(c.name, func(b *testing.B) {
			be := newBackend(b, 2, "rtx3090")
			batch := &sched.Batch{Seqs: c.seqs}
			if _, _, err := be.IterationLatency(batch); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				for range itersPerOp {
					if _, _, err := be.IterationLatency(batch); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
