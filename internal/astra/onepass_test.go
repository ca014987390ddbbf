package astra

import (
	"testing"

	"repro/internal/config"
	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/simtime"
)

// TestOnePassPlans: the converted shapes the simulator runs most are
// priced in one pass, so a check that grows stricter, or a compile that
// stops running it, fails here rather than silently falling back to the
// event loop.
func TestOnePassPlans(t *testing.T) {
	split := paperParams(t)
	split.Block = graph.BlockWork{
		Pre:  90 * us,
		Attn: map[int]simtime.Duration{0: 40 * us, 1: 55 * us},
		Post: 120 * us,
	}
	tp2, err := network.Build(network.Tensor, 2, 1, config.DefaultLink(), config.DefaultLink())
	if err != nil {
		t.Fatal(err)
	}
	// One iteration of BenchmarkClusterRooflineVsAstra's replicas: gpt2's
	// 12 layers on TP2, split block, head-split attention.
	cluster := graph.Params{
		Topo:            tp2,
		Layers:          12,
		Block:           graph.BlockWork{Pre: 8 * us, Attn: map[int]simtime.Duration{3: 5 * us}, Post: 15 * us},
		EmbedDur:        us,
		HeadDur:         30 * us,
		ActBytes:        768 << 4,
		HeadGatherBytes: 50257 << 2,
		RepeatBlocks:    true,
	}
	// One executor compiles the shapes in turn, as a simulator's does.
	var e, ref Executor
	for _, tc := range []struct {
		name  string
		p     graph.Params
		nodes int
	}{
		{"paper", paperParams(t), 23},
		{"paper split block", split, 39},
		{"cluster TP2", cluster, 12},
	} {
		g := graph.New()
		if err := graph.ConvertInto(g, tc.p); err != nil {
			t.Fatal(err)
		}
		if len(g.Nodes) != tc.nodes {
			t.Fatalf("%s: %d nodes, want %d", tc.name, len(g.Nodes), tc.nodes)
		}
		res, onePass := executeBothWays(t, tc.name, &e, &ref, g)
		if !onePass {
			t.Fatalf("%s: contention-free %v, spans isolated %v; want a one-pass plan",
				tc.name, e.plan.contentionFree(g), e.plan.spansIsolated(g))
		}
		for _, sp := range g.Spans {
			if sp.Count < 3 {
				t.Fatalf("%s: span %+v repeats too few times to shift", tc.name, sp)
			}
		}
		if want := 2 * len(g.Spans); res.BlocksRun != want {
			t.Fatalf("%s: %d blocks run, want %d", tc.name, res.BlocksRun, want)
		}
	}
}

// TestLoopPlans: a plan takes the event loop when a resource's users
// are not ordered by dependencies, when a node outside a span is ordered
// against neither side of its exit, and whenever the graph is hand-built.
func TestLoopPlans(t *testing.T) {
	compile := func(g *graph.Graph) *Executor {
		t.Helper()
		var e Executor
		if _, err := e.Execute(g); err != nil {
			t.Fatal(err)
		}
		return &e
	}

	// Two nodes on device 0, each ordered after a but not after each other.
	shared := graph.New()
	a := shared.AddCompute(0, us)
	shared.AddCompute(0, us, a)
	shared.AddCompute(0, us, a)
	if e := compile(shared); e.plan.contentionFree(shared) || e.plan.priceable(shared) {
		t.Fatal("unordered users of one resource: plan is contention-free")
	}

	stall := stallGraph(8, true, true)
	if e := compile(stall); e.plan.spansIsolated(stall) || e.plan.priceable(stall) {
		t.Fatal("stall node: spans are isolated")
	}
	// With the stall on a device of its own and ready only after the
	// first block's exit starts, the plan is contention-free, but the
	// stall waits in the event queue at the first block boundary, so the
	// loop runs a third block. The isolation check alone keeps this plan
	// from the pass, which would report two.
	apart := stallGraph(8, true, true)
	apart.Nodes[1].Duration = 12 * us
	apart.Nodes[2].Resources[0].Device = 3
	e := compile(apart)
	if !e.plan.contentionFree(apart) || e.plan.priceable(apart) {
		t.Fatal("stall node on its own device: want contention-free, not isolated")
	}
	forced := e.pass(&e.plan)
	if want, err := e.run(&e.plan); err != nil || want.BlocksRun != 3 || forced.BlocksRun != 2 {
		t.Fatalf("stall node on its own device: event loop runs %d blocks (%v), the pass %d; want 3 and 2",
			want.BlocksRun, err, forced.BlocksRun)
	}

	chain := stallGraph(8, true, false)
	e = compile(chain)
	if !e.plan.priceable(chain) {
		t.Fatal("hand-built chain: want both checks to pass")
	}
	if e.plan.onePass {
		t.Fatal("hand-built graph: plan priced in one pass")
	}
}

// TestResetRevalidates: after Reset, the graph and build of the held
// plan are validated again, so a graph made invalid in place is
// rejected.
func TestResetRevalidates(t *testing.T) {
	g := graph.New()
	if err := graph.ConvertInto(g, paperParams(t)); err != nil {
		t.Fatal(err)
	}
	var e Executor
	if _, err := e.Execute(g); err != nil {
		t.Fatal(err)
	}
	g.Nodes[3].Resources = nil
	if n, ok := g.Build(); !ok || n != e.plan.build {
		t.Fatal("clearing a node's resources ended the graph's build")
	}
	e.Reset()
	if _, err := e.Execute(g); err == nil {
		t.Fatal("graph with a resource-less node accepted after Reset")
	}
}
