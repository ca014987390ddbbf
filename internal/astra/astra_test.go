package astra

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
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
	a := g.AddCompute("a", 0, 10*us)
	b := g.AddCompute("b", 0, 20*us, a)
	g.AddCompute("c", 0, 30*us, b)
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
		g.AddCompute("w", dev, 100*us)
	}
	r, _ := execute(g)
	if r.Makespan != 100*us {
		t.Fatalf("parallel makespan %v", r.Makespan)
	}
}

// TestSameDeviceSerializes: two nodes on one device cannot overlap.
func TestSameDeviceSerializes(t *testing.T) {
	g := graph.New()
	g.AddCompute("a", 0, 100*us)
	g.AddCompute("b", 0, 100*us)
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
	g.AddCompute("compute", 0, 100*us)
	g.AddP2P("xfer", 0, 1, 100*us, 1<<20)
	r, _ := execute(g)
	if r.Makespan != 100*us {
		t.Fatalf("comm should overlap compute: %v", r.Makespan)
	}
}

// TestCollectiveOccupiesAllPorts: an all-reduce blocks every member's
// network port but not their compute units.
func TestCollectiveOccupiesAllPorts(t *testing.T) {
	g := graph.New()
	g.AddAllReduce("ar", []int{0, 1, 2, 3}, 50*us, 1<<20)
	g.AddP2P("xfer", 0, 1, 50*us, 1<<10)
	r, _ := execute(g)
	// The p2p shares ports 0,1 with the collective: must serialise.
	if r.Makespan != 100*us {
		t.Fatalf("port contention broken: %v", r.Makespan)
	}
}

func TestDependencyAcrossDevices(t *testing.T) {
	g := graph.New()
	a := g.AddCompute("s0", 0, 30*us)
	x := g.AddP2P("xfer", 0, 1, 10*us, 1<<10, a)
	g.AddCompute("s1", 1, 30*us, x)
	r, _ := execute(g)
	if r.Makespan != 70*us {
		t.Fatalf("pipeline chain %v", r.Makespan)
	}
}

// TestPipelining: a two-stage pipeline over two work items overlaps stage
// 0 of item 2 with stage 1 of item 1.
func TestPipelining(t *testing.T) {
	g := graph.New()
	a1 := g.AddCompute("a1", 0, 50*us)
	b1 := g.AddCompute("b1", 1, 50*us, a1)
	a2 := g.AddCompute("a2", 0, 50*us, a1)
	g.AddCompute("b2", 1, 50*us, b1, a2)
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
	g.AddCompute("a", 0, 10*us)
	g.AddCompute("b", 0, 20*us)
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

// TestInvalidGraphRejected: a hand-built graph has no shape, so it is
// validated on every Execute, also on an executor that has just run a
// valid graph of the same size, and a converted graph whose durations
// turn negative is rejected although its plan is held.
func TestInvalidGraphRejected(t *testing.T) {
	bad := graph.New()
	bad.Nodes = append(bad.Nodes, &graph.Node{ID: 0, Kind: graph.Compute, Duration: 1})
	good := graph.New()
	good.AddCompute("a", 0, 1)
	var e Executor
	for i := range 3 {
		if _, err := e.Execute(bad); err == nil {
			t.Fatalf("call %d: invalid graph accepted", i)
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
	if _, err := e.Execute(g); err == nil {
		t.Fatal("negative duration accepted on a held plan")
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
	a := g.AddCompute("a", 0, 10*us)
	b := g.AddCompute("b", 1, 100*us)
	c := g.AddCompute("c", 0, 10*us, a, b)
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
			g.AddP2P("x", dev, (dev+1)%4, d, 1024, deps...)
		} else {
			g.AddCompute("c", dev, d, deps...)
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
