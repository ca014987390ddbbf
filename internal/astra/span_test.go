package astra

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/simtime"
)

// randomParams draws one iteration's conversion inputs: topology,
// layer count, attention placement, block durations and KV paging
// transfers, including paging on later-stage devices, which stays
// pending while earlier stages run their blocks.
func randomParams(t *testing.T, rng *rand.Rand) graph.Params {
	t.Helper()
	mode := network.Parallelism(rng.Intn(3))
	npus, groups := 1+rng.Intn(4), 1
	if mode == network.Hybrid {
		groups = 1 + rng.Intn(2)
		npus = groups * (1 + rng.Intn(2))
	}
	topo, err := network.Build(mode, npus, groups, config.DefaultLink(), config.DefaultLink())
	if err != nil {
		t.Fatal(err)
	}
	dur := func(max int) simtime.Duration { return simtime.Duration(1+rng.Intn(max)) * simtime.Microsecond }
	p := graph.Params{
		Topo:            topo,
		Layers:          1 + rng.Intn(12),
		EmbedDur:        dur(20),
		HeadDur:         dur(40),
		ActBytes:        int64(1+rng.Intn(64)) << 14,
		HeadGatherBytes: int64(rng.Intn(4)) << 12,
		Placement:       graph.AttentionPlacement(rng.Intn(3)),
		Block:           graph.BlockWork{Pre: dur(50), Post: dur(80)},
		ReqBytes:        map[int]int64{},
	}
	if p.Placement == graph.PIMPool {
		p.Topo.PIMPool = 1 + rng.Intn(3)
	}
	if rng.Intn(4) == 0 {
		p.Block.Monolithic = dur(300)
	} else {
		p.Block.Attn, p.Block.PIMAttn = map[int]simtime.Duration{}, map[int]simtime.Duration{}
		for r := range 1 + rng.Intn(6) {
			id := 3*r + rng.Intn(3)
			p.Block.Attn[id] = dur(60)
			p.Block.PIMAttn[id] = dur(90)
			p.ReqBytes[id] = int64(1+rng.Intn(16)) << 12
		}
	}
	for range rng.Intn(5) {
		p.MemOps = append(p.MemOps, graph.MemOp{
			Device: rng.Intn(topo.NPUNodes()),
			Bytes:  int64(1+rng.Intn(256)) << 16,
			Load:   rng.Intn(2) == 0,
		})
	}
	return p
}

// unrolledID maps a node of a folded graph to the same node of its
// unrolled twin: a node at or past a span's first node moves past the
// span's folded repetitions, so a template node maps to its last
// repetition.
func unrolledID(spans []graph.Span, id int) int {
	u := id
	for _, sp := range spans {
		if id >= sp.First {
			u += (sp.Count - 1) * sp.Len
		}
	}
	return u
}

// checkTimings fails unless every node of the folded graph has the
// timing of its twin in the unrolled one (a template node that of its
// last repetition).
func checkTimings(t *testing.T, tag string, gf *graph.Graph, got, want Result) {
	t.Helper()
	for id := range gf.Nodes {
		if g, w := got.Timings[id], want.Timings[unrolledID(gf.Spans, id)]; g != w {
			t.Fatalf("%s: %v timing folded %+v, unrolled %+v", tag, gf.Nodes[id], g, w)
		}
	}
}

// resources returns how many resource slots Execute indexes for g.
func resources(g *graph.Graph) int {
	maxDev := 0
	for _, n := range g.Nodes {
		for _, r := range n.Resources {
			maxDev = max(maxDev, r.Device)
		}
	}
	return 3 * (maxDev + 1)
}

// sameResult fails unless got and want have the same makespan, the same
// timing for every node and the same block counts.
func sameResult(t *testing.T, tag string, got, want Result) {
	t.Helper()
	if got.Makespan != want.Makespan || got.BlocksRun != want.BlocksRun || got.BlocksShifted != want.BlocksShifted {
		t.Fatalf("%s: makespan %v, blocks %d run %d shifted; want %v, %d, %d",
			tag, got.Makespan, got.BlocksRun, got.BlocksShifted, want.Makespan, want.BlocksRun, want.BlocksShifted)
	}
	if len(got.Timings) != len(want.Timings) {
		t.Fatalf("%s: %d timings, want %d", tag, len(got.Timings), len(want.Timings))
	}
	for id, w := range want.Timings {
		if got.Timings[id] != w {
			t.Fatalf("%s: node %d timing %+v, want %+v", tag, id, got.Timings[id], w)
		}
	}
}

// executeBothWays runs g on e and on ref, an executor forced onto the
// event loop, and fails unless the two results are the same. It returns
// e's result and whether e priced g in one pass.
func executeBothWays(t *testing.T, tag string, e, ref *Executor, g *graph.Graph) (Result, bool) {
	t.Helper()
	ref.loop = true
	want, err := ref.Execute(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Execute(g)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, tag+" (one pass against the event loop)", got, want)
	return got, e.plan.onePass && !e.loop
}

// TestRepeatSpansMatchUnrolled is the executor's exactness contract:
// an iteration converted with repeat spans executes to the same
// makespan and node timings as the same iteration fully unrolled,
// whether the executor time-shifts a span or has to run every block,
// and prices each plan it may price in one pass exactly as the event
// loop does.
func TestRepeatSpansMatchUnrolled(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var folded, unrolled, foldedLoop, unrolledLoop Executor
	gf, gu := graph.New(), graph.New()
	var shifted, fullRuns, passes, loops int
	for i := range 400 {
		p := randomParams(t, rng)
		gu.Reset()
		if err := graph.ConvertInto(gu, p); err != nil {
			t.Fatal(err)
		}
		p.RepeatBlocks = true
		gf.Reset()
		if err := graph.ConvertInto(gf, p); err != nil {
			t.Fatal(err)
		}
		tag := fmt.Sprintf("case %d (%v TP%d PP%d pool %d, %v, %d layers, %d memops, mono %v)",
			i, p.Topo.Mode, p.Topo.TP, p.Topo.Stages, p.Topo.PIMPool, p.Placement, p.Layers, len(p.MemOps), p.Block.Monolithic > 0)
		want, _ := executeBothWays(t, tag+" unrolled", &unrolled, &unrolledLoop, gu)
		got, onePass := executeBothWays(t, tag+" folded", &folded, &foldedLoop, gf)
		if onePass {
			passes++
		} else {
			loops++
		}
		if got.Makespan != want.Makespan {
			t.Fatalf("%s: folded makespan %v, unrolled %v", tag, got.Makespan, want.Makespan)
		}
		// The last node (LM head or logit gather) is the same node in
		// both graphs.
		if g, w := got.Timings[len(gf.Nodes)-1], want.Timings[len(gu.Nodes)-1]; g != w {
			t.Fatalf("%s: last node timing folded %+v, unrolled %+v", tag, g, w)
		}
		checkTimings(t, tag, gf, got, want)
		// The shift also leaves every resource's free time where running
		// each block would. No later node can start before the shifted
		// exit, so no timing shows the free times; only this check does.
		// The one-pass pricing keeps no free times, so only the event
		// loop's are compared.
		if n := resources(gu); !slices.Equal(foldedLoop.resFree[:n], unrolledLoop.resFree[:n]) {
			t.Fatalf("%s: resource free times folded %v, unrolled %v", tag, foldedLoop.resFree[:n], unrolledLoop.resFree[:n])
		}
		blocks := 0
		for _, sp := range gf.Spans {
			blocks += sp.Count
		}
		if got.BlocksRun+got.BlocksShifted != blocks {
			t.Fatalf("%s: %d blocks run + %d shifted, spans hold %d", tag, got.BlocksRun, got.BlocksShifted, blocks)
		}
		if want.BlocksRun != 0 || want.BlocksShifted != 0 {
			t.Fatalf("%s: unrolled graph reports block counts", tag)
		}
		if got.BlocksShifted > 0 {
			shifted++
		}
		if got.BlocksRun > 2*len(gf.Spans) {
			fullRuns++
		}
	}
	if shifted == 0 || fullRuns == 0 || passes == 0 || loops == 0 {
		t.Fatalf("cases with a shift %d, with blocks run past the second %d, priced in one pass %d, by the event loop %d: all must be covered",
			shifted, fullRuns, passes, loops)
	}
}

// stallGraph builds an entry, a span of blocks (a on device 0, b on
// device 1, an all-reduce across both) folded or unrolled, and a tail
// on device 1. With stall, a node outside the span takes device 1
// during the first block and holds it past the first block boundary; it
// is ordered against neither the span's exit nor b, so the plan is
// neither isolated nor contention-free.
func stallGraph(blocks int, fold, stall bool) *graph.Graph {
	g := graph.New()
	entry := g.AddCompute(0, us)
	if stall {
		pre := g.AddCompute(2, 2*us)
		g.AddCompute(1, 25*us, pre) // runs on device 1 right after the first block's b
	}
	reps := blocks
	if fold {
		reps = 1
	}
	first := len(g.Nodes)
	for range reps {
		a := g.AddCompute(0, 10*us, entry)
		b := g.AddCompute(1, 4*us, entry)
		entry = g.AddAllReduce([]int{0, 1}, 2*us, a, b)
	}
	if fold {
		g.Spans = append(g.Spans, graph.Span{First: first, Len: len(g.Nodes) - first, Count: blocks})
	}
	g.AddCompute(1, us, entry)
	return g
}

// priceOnePass prices g in one pass, which Execute keeps for converted
// builds, when its plan passes both checks; it reports whether it did.
func priceOnePass(t *testing.T, g *graph.Graph) (Result, bool) {
	t.Helper()
	var e Executor
	if _, err := e.Execute(g); err != nil { // validates, compiles and copies the durations
		t.Fatal(err)
	}
	if !e.plan.priceable(g) {
		return Result{}, false
	}
	return e.pass(&e.plan), true
}

// TestSpanSteadyStateAfterStall: a node outside the span takes one of
// the template's resources during the first block and holds it past the
// first block boundary, so the boundary states only start to repeat
// from the second block on; the shifted schedule must still equal the
// unrolled one. Without the stall node the plan is priced in one pass,
// which must equal the event loop's schedule, folded or unrolled.
func TestSpanSteadyStateAfterStall(t *testing.T) {
	for _, stall := range []bool{true, false} {
		for _, blocks := range []int{1, 2, 3, 8} {
			tag := fmt.Sprintf("stall %v, %d blocks", stall, blocks)
			gf, gu := stallGraph(blocks, true, stall), stallGraph(blocks, false, stall)
			want, err := execute(gu)
			if err != nil {
				t.Fatal(err)
			}
			got, err := execute(gf)
			if err != nil {
				t.Fatal(err)
			}
			if got.Makespan != want.Makespan {
				t.Fatalf("%s: folded makespan %v, unrolled %v", tag, got.Makespan, want.Makespan)
			}
			checkTimings(t, tag, gf, got, want)
			for _, g := range []*graph.Graph{gf, gu} {
				pass, ok := priceOnePass(t, g)
				if ok == stall {
					t.Fatalf("%s: priced in one pass %v", tag, ok)
				}
				if ok {
					loop, _ := execute(g)
					sameResult(t, tag+" (one pass against the event loop)", pass, loop)
				}
			}
			if blocks == 8 && stall && (got.BlocksRun != 3 || got.BlocksShifted != 5) {
				t.Fatalf("%s: run %d, shifted %d; want 3 run (the stall breaks the first repeat), 5 shifted",
					tag, got.BlocksRun, got.BlocksShifted)
			}
			if blocks == 8 && !stall && (got.BlocksRun != 2 || got.BlocksShifted != 6) {
				t.Fatalf("%s: run %d, shifted %d; want 2 run, 6 shifted", tag, got.BlocksRun, got.BlocksShifted)
			}
		}
	}
}

// TestExecutorSpansAllocationFree: a warmed executor running a folded
// graph allocates nothing, like an unrolled one, whether it prices the
// plan in one pass or by the event loop.
func TestExecutorSpansAllocationFree(t *testing.T) {
	g := graph.New()
	if err := graph.ConvertInto(g, paperParams(t)); err != nil {
		t.Fatal(err)
	}
	for _, loop := range []bool{false, true} {
		e := Executor{loop: loop}
		if _, err := e.Execute(g); err != nil {
			t.Fatal(err)
		}
		if !e.plan.onePass {
			t.Fatal("the paper's shape is not priced in one pass")
		}
		if n := testing.AllocsPerRun(20, func() {
			if _, err := e.Execute(g); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("event loop %v: warmed Execute on a folded graph allocates %v times", loop, n)
		}
	}
}
