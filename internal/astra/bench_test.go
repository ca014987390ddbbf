package astra

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/simtime"
)

// buildServingGraph constructs a TP-style iteration graph: workers x
// layers x (pre, attn, post) with a collective per layer — the node mix
// the Fig. 10 scalability sweep stresses.
func buildServingGraph(workers, layers int) *graph.Graph {
	g := graph.New()
	entry := make([]int, workers)
	for w := 0; w < workers; w++ {
		entry[w] = g.AddCompute(w, simtime.Microsecond)
	}
	for l := 0; l < layers; l++ {
		post := make([]int, workers)
		for w := 0; w < workers; w++ {
			pre := g.AddCompute(w, 10*simtime.Microsecond, entry[w])
			attn := g.AddCompute(w, 5*simtime.Microsecond, pre)
			post[w] = g.AddCompute(w, 20*simtime.Microsecond, attn)
		}
		devs := make([]int, workers)
		for w := range devs {
			devs[w] = w
		}
		ar := g.AddAllReduce(devs, 3*simtime.Microsecond, post...)
		for w := 0; w < workers; w++ {
			entry[w] = ar
		}
	}
	return g
}

// paperParams is one decode iteration of the paper's NPU+PIM system as
// the astra backend converts it: gpt3-7b's 32 layers on TP4 x PP2, the
// sub-batch-interleaved (monolithic) block, each stage's blocks stored
// once as a repeat span.
func paperParams(tb testing.TB) graph.Params {
	topo, err := network.Build(network.Hybrid, 8, 2, config.DefaultLink(), config.DefaultLink())
	if err != nil {
		tb.Fatal(err)
	}
	return graph.Params{
		Topo:            topo,
		Layers:          32,
		Block:           graph.BlockWork{Monolithic: 249 * simtime.Microsecond},
		EmbedDur:        1212 * simtime.Nanosecond,
		HeadDur:         225 * simtime.Microsecond,
		ActBytes:        24 << 13,
		HeadGatherBytes: 24 << 14,
		RepeatBlocks:    true,
	}
}

// BenchmarkExecute measures the event engine on a held, warmed
// Executor, as a simulator runs it: across system scales on hand-built
// graphs, which compile on every call, and on the paper's converted
// shape, whose plan is compiled once while the durations change on every
// call.
func BenchmarkExecute(b *testing.B) {
	for _, workers := range []int{8, 64, 512} {
		g := buildServingGraph(workers, 32)
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var e Executor
			if _, err := e.Execute(g); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Execute(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("shape=paper", func(b *testing.B) {
		p := paperParams(b)
		g := graph.New()
		if err := graph.ConvertInto(g, p); err != nil {
			b.Fatal(err)
		}
		base := make([]simtime.Duration, len(g.Nodes))
		for i, n := range g.Nodes {
			base[i] = n.Duration
		}
		var e Executor
		if _, err := e.Execute(g); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			i++
			for k, n := range g.Nodes {
				n.Duration = base[k] + simtime.Duration(i%7)*simtime.Nanosecond
			}
			if _, err := e.Execute(g); err != nil {
				b.Fatal(err)
			}
		}
	})
}
