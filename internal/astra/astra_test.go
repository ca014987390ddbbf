package astra

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/simtime"
)

const us = simtime.Microsecond

// execute runs g on a fresh Executor.
func execute(g *graph.Graph) (Result, error) {
	var e Executor
	return e.Execute(g)
}

func TestEmptyGraph(t *testing.T) {
	r, err := execute(graph.New())
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 0 {
		t.Fatal("empty graph must take no time")
	}
}

func TestChainSums(t *testing.T) {
	g := graph.New()
	a := g.AddCompute(0, 10*us)
	b := g.AddCompute(0, 20*us, a)
	g.AddCompute(0, 30*us, b)
	r, err := execute(g)
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 60*us {
		t.Fatalf("makespan %v", r.Makespan)
	}
	if r.Timings[1].Start != simtime.Time(10*us) || r.Timings[2].End != simtime.Time(60*us) {
		t.Fatal("timings wrong")
	}
}

// TestIndependentDevicesOverlap: work on different devices runs in
// parallel.
func TestIndependentDevicesOverlap(t *testing.T) {
	g := graph.New()
	for dev := 0; dev < 4; dev++ {
		g.AddCompute(dev, 100*us)
	}
	r, _ := execute(g)
	if r.Makespan != 100*us {
		t.Fatalf("parallel makespan %v", r.Makespan)
	}
}

// TestSameDeviceSerializes: two nodes on one device cannot overlap.
func TestSameDeviceSerializes(t *testing.T) {
	g := graph.New()
	g.AddCompute(0, 100*us)
	g.AddCompute(0, 100*us)
	r, _ := execute(g)
	if r.Makespan != 200*us {
		t.Fatalf("serialized makespan %v", r.Makespan)
	}
}

// TestCommOverlapsCompute: a network transfer and a compute span on the
// same device use different resources and overlap — the ASTRA-sim
// behaviour the resource classes exist for.
func TestCommOverlapsCompute(t *testing.T) {
	g := graph.New()
	g.AddCompute(0, 100*us)
	g.AddP2P(0, 1, 100*us)
	r, _ := execute(g)
	if r.Makespan != 100*us {
		t.Fatalf("comm should overlap compute: %v", r.Makespan)
	}
}

// TestCollectiveOccupiesAllPorts: an all-reduce blocks every member's
// network port but not their compute units.
func TestCollectiveOccupiesAllPorts(t *testing.T) {
	g := graph.New()
	g.AddAllReduce([]int{0, 1, 2, 3}, 50*us)
	g.AddP2P(0, 1, 50*us)
	r, _ := execute(g)
	// The p2p shares ports 0,1 with the collective: must serialise.
	if r.Makespan != 100*us {
		t.Fatalf("port contention broken: %v", r.Makespan)
	}
}

func TestDependencyAcrossDevices(t *testing.T) {
	g := graph.New()
	a := g.AddCompute(0, 30*us)
	x := g.AddP2P(0, 1, 10*us, a)
	g.AddCompute(1, 30*us, x)
	r, _ := execute(g)
	if r.Makespan != 70*us {
		t.Fatalf("pipeline chain %v", r.Makespan)
	}
}

// TestPipelining: a two-stage pipeline over two work items overlaps stage
// 0 of item 2 with stage 1 of item 1.
func TestPipelining(t *testing.T) {
	g := graph.New()
	a1 := g.AddCompute(0, 50*us)
	b1 := g.AddCompute(1, 50*us, a1)
	a2 := g.AddCompute(0, 50*us, a1)
	g.AddCompute(1, 50*us, b1, a2)
	r, _ := execute(g)
	if r.Makespan != 150*us {
		t.Fatalf("pipelined makespan %v, want 150us", r.Makespan)
	}
}

// TestBusyAccounting: two independent nodes on one device run back to
// back, the lower ID first, so the device is busy for the whole
// makespan.
func TestBusyAccounting(t *testing.T) {
	g := graph.New()
	g.AddCompute(0, 10*us)
	g.AddCompute(0, 20*us)
	r, _ := execute(g)
	if r.Makespan != 30*us {
		t.Fatalf("serial makespan %v, want 30us", r.Makespan)
	}
	if r.Timings[0] != (NodeTiming{0, simtime.Time(10 * us)}) || r.Timings[1] != (NodeTiming{simtime.Time(10 * us), simtime.Time(30 * us)}) {
		t.Fatalf("timings %+v", r.Timings)
	}
}

func TestDeterminism(t *testing.T) {
	g := buildRandomDAG(rand.New(rand.NewSource(5)), 50)
	r1, err := execute(g)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := execute(g)
	if r1.Makespan != r2.Makespan {
		t.Fatal("nondeterministic makespan")
	}
	for i := range r1.Timings {
		if r1.Timings[i] != r2.Timings[i] {
			t.Fatal("nondeterministic timings")
		}
	}
}

// TestInvalidGraphRejected: a hand-built graph is no converted build,
// so it is validated on every Execute, also on an executor that has just
// run a valid graph of the same size, and a converted graph whose
// durations turn negative is rejected although its plan is held. Both
// errors name the node by its ID and kind, the held plan's exactly as
// Validate does.
func TestInvalidGraphRejected(t *testing.T) {
	bad := graph.New()
	bad.Nodes = append(bad.Nodes, &graph.Node{ID: 0, Kind: graph.Compute, Duration: 1})
	good := graph.New()
	good.AddCompute(0, 1)
	var e Executor
	for i := range 3 {
		if _, err := e.Execute(bad); err == nil || !strings.Contains(err.Error(), "node 0 (compute") {
			t.Fatalf("call %d: invalid graph gave %v, want an error naming node 0 (compute)", i, err)
		}
		if _, err := e.Execute(good); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}

	g, err := graph.Convert(paperParams(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(g); err != nil {
		t.Fatal(err)
	}
	g.Nodes[5].Duration = -1
	_, err = e.Execute(g)
	if want := g.Validate(); err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("negative duration on a held plan gave %v, want Validate's %v", err, want)
	}
	if name := fmt.Sprintf("node 5 (%s", g.Nodes[5].Kind); !strings.Contains(err.Error(), name) {
		t.Fatalf("error %q does not name %s", err, name)
	}
	g.Nodes[5].Duration = 1
	if _, err := e.Execute(g); err != nil {
		t.Fatal(err)
	}
}

// TestCriticalPath: a node waits for its latest dependency, so the
// longer of two parallel chains sets the makespan.
func TestCriticalPath(t *testing.T) {
	g := graph.New()
	a := g.AddCompute(0, 10*us)
	b := g.AddCompute(1, 100*us)
	c := g.AddCompute(0, 10*us, a, b)
	r, _ := execute(g)
	if r.Timings[c].Start != r.Timings[b].End || r.Timings[c].Start <= r.Timings[a].End {
		t.Fatalf("c starts at %v; dependencies end at %v and %v", r.Timings[c].Start, r.Timings[a].End, r.Timings[b].End)
	}
	if r.Makespan != 110*us {
		t.Fatalf("makespan %v, want 110us", r.Makespan)
	}
}

func buildRandomDAG(rng *rand.Rand, n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		dev := rng.Intn(4)
		d := simtime.Duration(1+rng.Intn(50)) * us
		var deps []int
		for j := 0; j < i && len(deps) < 3; j++ {
			if rng.Intn(5) == 0 {
				deps = append(deps, rng.Intn(i))
			}
		}
		if rng.Intn(3) == 0 && i > 0 {
			g.AddP2P(dev, (dev+1)%4, d, deps...)
		} else {
			g.AddCompute(dev, d, deps...)
		}
	}
	return g
}

// TestMakespanBoundsProperty: makespan is at least the critical-path time
// and at most the serial sum of all durations.
func TestMakespanBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	f := func() bool {
		g := buildRandomDAG(rng, 1+rng.Intn(60))
		r, err := execute(g)
		if err != nil {
			return false
		}
		var total simtime.Duration
		for _, n := range g.Nodes {
			total += n.Duration
		}
		// Critical path lower bound.
		longest := longestPath(g)
		return r.Makespan >= longest && r.Makespan <= total
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func longestPath(g *graph.Graph) simtime.Duration {
	dist := make([]simtime.Duration, len(g.Nodes))
	var best simtime.Duration
	for _, n := range g.Nodes {
		d := n.Duration
		for _, dep := range n.Deps {
			if dist[dep]+n.Duration > d {
				d = dist[dep] + n.Duration
			}
		}
		dist[n.ID] = d
		if d > best {
			best = d
		}
	}
	return best
}

// TestExecutorAllocationFree: a warmed Executor runs a reused graph
// without allocating, and gives the same schedule every time.
func TestExecutorAllocationFree(t *testing.T) {
	g := buildServingGraph(8, 4)
	var e Executor
	want, err := e.Execute(g)
	if err != nil {
		t.Fatal(err)
	}
	want.Timings = append([]NodeTiming(nil), want.Timings...)
	if n := testing.AllocsPerRun(50, func() {
		if _, err := e.Execute(g); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("warmed Execute allocates %v times per call", n)
	}
	r, _ := e.Execute(g)
	if r.Makespan != want.Makespan || !slices.Equal(r.Timings, want.Timings) {
		t.Fatal("re-executing the same graph changed its result")
	}
}

// TestPlanFollowsBuild: one executor recompiles its plan whenever the
// converter rebuilds the graph, also when only the paging moved, and
// keeps it while only durations change. Two converted graphs of one
// shape whose paging differs, taking turns on one executor, each get a
// fresh executor's result.
func TestPlanFollowsBuild(t *testing.T) {
	topo, err := network.Build(network.Hybrid, 4, 2, config.DefaultLink(), config.DefaultLink())
	if err != nil {
		t.Fatal(err)
	}
	base := graph.Params{
		Topo:            topo,
		Layers:          6,
		Block:           graph.BlockWork{Pre: 9 * us, Post: 14 * us, Attn: map[int]simtime.Duration{0: 5 * us, 1: 7 * us}},
		EmbedDur:        us,
		HeadDur:         3 * us,
		ActBytes:        1 << 20,
		HeadGatherBytes: 1 << 10,
		Placement:       graph.RequestSplit,
		RepeatBlocks:    true,
		MemOps:          []graph.MemOp{{Device: 0, Bytes: 1 << 20, Load: true}},
	}
	slower, moved, deeper := base, base, base
	slower.Block.Pre = 20 * us
	moved.MemOps = []graph.MemOp{{Device: 2, Bytes: 1 << 20, Load: true}}
	deeper.Layers++
	fresh := func(p graph.Params) Result {
		t.Helper()
		g, err := graph.Convert(p)
		if err != nil {
			t.Fatal(err)
		}
		r, err := execute(g)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	held := graph.New()
	var e Executor
	var prev uint64
	for i, step := range []struct {
		name    string
		p       graph.Params
		rebuild bool
	}{
		{"first", base, true},
		{"durations", slower, false},
		{"paging moved", moved, true},
		{"paging back", base, true},
		{"durations again", slower, false},
		{"layers", deeper, true},
	} {
		if err := graph.ConvertInto(held, step.p); err != nil {
			t.Fatal(err)
		}
		n, ok := held.Build()
		if !ok {
			t.Fatalf("%s: converted graph is no converted build", step.name)
		}
		if rebuilt := i == 0 || n != prev; rebuilt != step.rebuild {
			t.Fatalf("%s: rebuilt %v, want %v", step.name, rebuilt, step.rebuild)
		}
		prev = n
		// A held plan never reads the graph's resources, and compiling
		// one validates them: a recompile rejects this graph.
		res := held.Nodes[1].Resources
		if !step.rebuild {
			held.Nodes[1].Resources = nil
		}
		got, err := e.Execute(held)
		held.Nodes[1].Resources = res
		if err != nil {
			t.Fatalf("%s: recompiled a held build: %v", step.name, err)
		}
		if e.plan.graph != held || e.plan.build != n {
			t.Fatalf("%s: plan holds build %d, graph is at build %d", step.name, e.plan.build, n)
		}
		sameResult(t, step.name, got, fresh(step.p))
	}

	a, err := graph.Convert(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := graph.Convert(moved)
	if err != nil {
		t.Fatal(err)
	}
	var shared Executor
	for i := range 4 {
		g, p := a, base
		if i%2 == 1 {
			g, p = b, moved
		}
		got, err := shared.Execute(g)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("turn %d", i), got, fresh(p))
	}
}
