package graph

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/network"
	"repro/internal/simtime"
)

func topo(t *testing.T, mode network.Parallelism, n, g, pim int) network.Topology {
	t.Helper()
	tp, err := network.Build(mode, n, g, config.DefaultLink(), config.DefaultLink())
	if err != nil {
		t.Fatal(err)
	}
	tp.PIMPool = pim
	return tp
}

func baseParams(t *testing.T, tp network.Topology) Params {
	return Params{
		Topo:   tp,
		Layers: 4,
		Block: BlockWork{
			Pre:  10 * simtime.Microsecond,
			Post: 20 * simtime.Microsecond,
			Attn: map[int]simtime.Duration{
				0: 5 * simtime.Microsecond,
				1: 7 * simtime.Microsecond,
			},
		},
		EmbedDur:        simtime.Microsecond,
		HeadDur:         2 * simtime.Microsecond,
		ActBytes:        1 << 20,
		HeadGatherBytes: 1 << 10,
		ReqBytes:        map[int]int64{0: 8192, 1: 8192},
	}
}

// tally is the node count and total duration of one node kind.
type tally struct {
	n int
	d simtime.Duration
}

// kinds tallies g's nodes by kind, a repeat span's template nodes once
// per repetition, so a folded graph tallies like its unrolled form.
func kinds(g *Graph) map[NodeKind]tally {
	m := map[NodeKind]tally{}
	for _, n := range g.Nodes {
		reps := 1
		for _, sp := range g.Spans {
			if sp.Contains(n.ID) {
				reps = sp.Count
			}
		}
		k := m[n.Kind]
		k.n += reps
		k.d += simtime.Duration(reps) * n.Duration
		m[n.Kind] = k
	}
	return m
}

// slotted returns the nodes of g that take their duration from slot.
func slotted(g *Graph, slot int) []*Node {
	var ns []*Node
	for i, n := range g.Nodes {
		if int(g.conv.slots[i]) == slot {
			ns = append(ns, n)
		}
	}
	return ns
}

func TestConvertSingleDevice(t *testing.T) {
	p := baseParams(t, topo(t, network.Tensor, 1, 0, 0))
	g, err := Convert(p)
	if err != nil {
		t.Fatal(err)
	}
	k := kinds(g)
	// embed + 4 layers x (pre, attn, post) + head; no comm at TP1.
	if k[Compute].n != 1+4*3+1 {
		t.Fatalf("compute nodes = %d", k[Compute].n)
	}
	if k[AllReduce].n != 0 || k[P2P].n != 0 {
		t.Fatal("TP1 PP1 must have no communication")
	}
}

func TestConvertTensorParallel(t *testing.T) {
	p := baseParams(t, topo(t, network.Tensor, 4, 0, 0))
	g, err := Convert(p)
	if err != nil {
		t.Fatal(err)
	}
	k := kinds(g)
	// One merged all-reduce per layer plus the logit gather.
	if k[AllReduce].n != 4+1 {
		t.Fatalf("allreduce nodes = %d", k[AllReduce].n)
	}
	// 4 workers x (embed + 4x3 + head).
	if k[Compute].n != 4*(1+4*3+1) {
		t.Fatalf("compute nodes = %d", k[Compute].n)
	}
}

func TestConvertPipeline(t *testing.T) {
	p := baseParams(t, topo(t, network.Pipeline, 4, 0, 0))
	g, err := Convert(p)
	if err != nil {
		t.Fatal(err)
	}
	k := kinds(g)
	// 3 stage boundaries, one transfer each (TP1).
	if k[P2P].n != 3 {
		t.Fatalf("p2p nodes = %d", k[P2P].n)
	}
	if k[AllReduce].n != 0 {
		t.Fatal("TP1 pipeline must have no all-reduce")
	}
}

func TestConvertMoreStagesThanLayers(t *testing.T) {
	p := baseParams(t, topo(t, network.Pipeline, 8, 0, 0))
	p.Layers = 4 // stages 4..7 hold no layers, only forward
	g, err := Convert(p)
	if err != nil {
		t.Fatal(err)
	}
	if n := kinds(g)[P2P].n; n != 7 {
		t.Fatalf("p2p = %d", n)
	}
}

// TestConvertRequestSplit: each request's attention runs at full head
// count on one worker, from the request's own slot.
func TestConvertRequestSplit(t *testing.T) {
	p := baseParams(t, topo(t, network.Tensor, 2, 0, 0))
	p.Placement = RequestSplit
	g, err := Convert(p)
	if err != nil {
		t.Fatal(err)
	}
	// Each layer: 2 pre + 2 attn (one per request, round-robined) + 2 post.
	found := 0
	for i, r := range []int{0, 1} {
		for _, n := range slotted(g, slotPages+i) {
			found++
			// Full-head duration = local x TP.
			if want := p.Block.Attn[r] * 2; n.Kind != Compute || n.Duration != want || n.Resources[0].Device != i {
				t.Fatalf("request %d attention %v, duration %v; want compute on device %d, %v", r, n, n.Duration, i, want)
			}
		}
	}
	if found != 4*2 {
		t.Fatalf("request-split attention nodes = %d", found)
	}
}

func TestConvertPIMPool(t *testing.T) {
	p := baseParams(t, topo(t, network.Tensor, 2, 0, 2))
	p.Placement = PIMPool
	p.Block.PIMAttn = map[int]simtime.Duration{
		0: 3 * simtime.Microsecond,
		1: 4 * simtime.Microsecond,
	}
	g, err := Convert(p)
	if err != nil {
		t.Fatal(err)
	}
	// Per layer per request: transfer out + back = 2 P2P.
	if n := kinds(g)[P2P].n; n != 4*2*2 {
		t.Fatalf("pim transfers = %d", n)
	}
	// PIM compute nodes land on pool devices (IDs 2,3). Each request has
	// a transfer slot, then its PIM compute slot.
	pim := 0
	for i, r := range []int{0, 1} {
		for _, n := range slotted(g, slotPages+2*i+1) {
			pim++
			if dev := n.Resources[0].Device; n.Kind != Compute || dev != 2 && dev != 3 {
				t.Fatalf("pim compute %v", n)
			}
			if n.Duration != p.Block.PIMAttn[r] {
				t.Fatalf("pim compute %v takes %v, want %v", n, n.Duration, p.Block.PIMAttn[r])
			}
		}
	}
	if pim != 4*2 {
		t.Fatalf("pim compute nodes = %d", pim)
	}
}

func TestConvertMonolithic(t *testing.T) {
	p := baseParams(t, topo(t, network.Tensor, 2, 0, 0))
	p.Block = BlockWork{Monolithic: 50 * simtime.Microsecond}
	g, err := Convert(p)
	if err != nil {
		t.Fatal(err)
	}
	blocks := slotted(g, slotBlock)
	for _, n := range blocks {
		if n.Kind != Compute || n.Duration != 50*simtime.Microsecond {
			t.Fatalf("monolithic block %v takes %v", n, n.Duration)
		}
	}
	if len(blocks) != 4*2 {
		t.Fatalf("monolithic blocks = %d", len(blocks))
	}
}

func TestConvertMemOps(t *testing.T) {
	p := baseParams(t, topo(t, network.Tensor, 2, 0, 0))
	p.MemOps = []MemOp{
		{Device: 0, Bytes: 1 << 20, Load: true},
		{Device: 1, Bytes: 1 << 20, Load: false},
		{Device: 0, Bytes: 1 << 10, Load: false},
	}
	g, err := Convert(p)
	if err != nil {
		t.Fatal(err)
	}
	k := kinds(g)
	if k[MemLoad].n != 1 || k[MemStore].n != 2 {
		t.Fatalf("mem nodes %v", k)
	}
	// The paging ops come first, in order, each on its device's DMA
	// engine for its host transfer time.
	for i, m := range p.MemOps {
		n := g.Nodes[i]
		if (n.Kind == MemLoad) != m.Load || n.Resources[0] != (Resource{ResHostDMA, m.Device}) ||
			n.Duration != p.Topo.HostTransfer(m.Bytes) {
			t.Fatalf("paging node %v takes %v, want op %+v", n, n.Duration, m)
		}
	}
	// The embed on device 0 must wait on its reload and its eviction.
	var embedDeps []int
	for _, n := range slotted(g, slotEmbed) {
		if n.Resources[0].Device == 0 {
			embedDeps = n.Deps
		}
	}
	if !slices.Equal(embedDeps, []int{0, 2}) {
		t.Fatalf("embed deps %v", embedDeps)
	}
}

// TestShapeKey: on one graph, every Params field that decides the
// graph's nodes, dependencies, resources or spans forces a rebuild, and
// the fields that only set durations do not. A rebuild gives the graph
// a new build number, and with it a recompile by any executor that
// holds the graph's plan.
func TestShapeKey(t *testing.T) {
	base := func() Params {
		p := baseParams(t, topo(t, network.Hybrid, 4, 2, 0))
		p.Placement = RequestSplit
		p.MemOps = []MemOp{{Device: 0, Bytes: 1 << 20, Load: true}}
		return p
	}
	g := New()
	convert := func(p Params) uint64 {
		t.Helper()
		if err := ConvertInto(g, p); err != nil {
			t.Fatal(err)
		}
		n, ok := g.Build()
		if !ok {
			t.Fatal("converted graph is no converted build")
		}
		return n
	}
	for name, edit := range map[string]func(p *Params){
		"stages":        func(p *Params) { p.Topo = topo(t, network.Hybrid, 4, 4, 0) },
		"tp":            func(p *Params) { p.Topo = topo(t, network.Hybrid, 8, 2, 0) },
		"pim pool":      func(p *Params) { p.Topo.PIMPool = 2 },
		"layers":        func(p *Params) { p.Layers++ },
		"placement":     func(p *Params) { p.Placement = HeadSplit },
		"monolithic":    func(p *Params) { p.Block.Monolithic = 9 * simtime.Microsecond },
		"repeat blocks": func(p *Params) { p.RepeatBlocks = true },
		"request count": func(p *Params) { p.Block.Attn = map[int]simtime.Duration{0: 1, 1: 2, 2: 3} },
		"no gather":     func(p *Params) { p.HeadGatherBytes = 0 },
		"page device":   func(p *Params) { p.MemOps[0].Device = 1 },
		"page kind":     func(p *Params) { p.MemOps[0].Load = false },
		"page count":    func(p *Params) { p.MemOps = append(p.MemOps, p.MemOps[0]) },
		"no pages":      func(p *Params) { p.MemOps = nil },
	} {
		before := convert(base())
		p := base()
		edit(&p)
		if convert(p) == before {
			t.Errorf("%s: graph not rebuilt", name)
		}
	}
	for name, edit := range map[string]func(p *Params){
		"durations":   func(p *Params) { p.Block.Pre, p.EmbedDur, p.HeadDur = 1, 2, 3 },
		"payloads":    func(p *Params) { p.ActBytes, p.HeadGatherBytes, p.MemOps[0].Bytes = 1, 2, 3 },
		"link":        func(p *Params) { p.Topo.Link.BandwidthBytes /= 2 },
		"request IDs": func(p *Params) { p.Block.Attn = map[int]simtime.Duration{7: 1, 9: 2} },
	} {
		before := convert(base())
		p := base()
		edit(&p)
		if convert(p) != before {
			t.Errorf("%s: graph rebuilt", name)
		}
	}
	g = New()
	g.AddCompute(0, 1)
	if _, ok := g.Build(); ok {
		t.Fatal("hand-built graph is a converted build")
	}
}

// sameStructure fails unless got and want hold equal nodes and spans.
func sameStructure(t *testing.T, got, want *Graph) {
	t.Helper()
	if len(got.Nodes) != len(want.Nodes) || !slices.Equal(got.Spans, want.Spans) {
		t.Fatalf("%d nodes, spans %v; want %d, %v", len(got.Nodes), got.Spans, len(want.Nodes), want.Spans)
	}
	for i, n := range got.Nodes {
		w := want.Nodes[i]
		if n.ID != w.ID || n.Kind != w.Kind || n.Duration != w.Duration ||
			!slices.Equal(n.Resources, w.Resources) || !slices.Equal(n.Deps, w.Deps) {
			t.Fatalf("node %d: %+v, want %+v", i, *n, *w)
		}
	}
}

// TestConvertIntoReusesShape: converting an iteration of the shape a
// graph already holds rewrites the durations in place, allocating
// nothing and keeping the graph's build, and leaves the graph equal to a
// fresh conversion; a new shape rebuilds it. Alternating two paging
// patterns rebuilds the graph on every conversion, and once both have
// been built, a rebuild allocates nothing either.
func TestConvertIntoReusesShape(t *testing.T) {
	for _, place := range []AttentionPlacement{HeadSplit, RequestSplit, PIMPool} {
		t.Run(place.String(), func(t *testing.T) {
			p := baseParams(t, topo(t, network.Hybrid, 4, 2, 2))
			p.Placement, p.RepeatBlocks = place, true
			p.Block.PIMAttn = p.Block.Attn
			p.MemOps = []MemOp{{Device: 1, Bytes: 1 << 20}}
			g := New()
			if err := ConvertInto(g, p); err != nil {
				t.Fatal(err)
			}
			build, _ := g.Build()

			q := p
			q.Block = BlockWork{Pre: 3, Post: 4, Attn: map[int]simtime.Duration{5: 6, 8: 7}}
			q.Block.PIMAttn = map[int]simtime.Duration{5: 11, 8: 12}
			q.ReqBytes = map[int]int64{5: 100, 8: 200}
			q.EmbedDur, q.HeadDur, q.ActBytes, q.HeadGatherBytes = 1, 2, 300, 400
			q.MemOps = []MemOp{{Device: 1, Bytes: 1 << 10}}
			if n := testing.AllocsPerRun(10, func() {
				if err := ConvertInto(g, q); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Fatalf("converting a held shape allocates %v times", n)
			}
			want, err := Convert(q)
			if err != nil {
				t.Fatal(err)
			}
			if n, _ := g.Build(); n != build {
				t.Fatal("a held shape was rebuilt")
			}
			sameStructure(t, g, want)
			if m := g.Nodes[0]; m.Kind != MemStore || m.Duration != q.Topo.HostTransfer(q.MemOps[0].Bytes) {
				t.Fatalf("paging node %v takes %v after a held-shape conversion", m, m.Duration)
			}

			// Two paging patterns of different devices, directions and
			// counts: each conversion rebuilds.
			pages := [2][]MemOp{
				{{Device: 2, Bytes: 1 << 20}},
				{{Device: 2, Bytes: 1 << 20, Load: true}, {Device: 0, Bytes: 1 << 16}},
			}
			rebuilds := 0
			alternate := func() {
				for _, ops := range pages {
					q.MemOps = ops
					if err := ConvertInto(g, q); err != nil {
						t.Fatal(err)
					}
					if n, _ := g.Build(); n != build {
						build = n
						rebuilds++
					}
				}
			}
			alternate()
			if n := testing.AllocsPerRun(10, alternate); n != 0 {
				t.Fatalf("a pair of paging-only rebuilds allocates %v times", n)
			}
			if rebuilds != 2*12 {
				t.Fatalf("%d rebuilds in 12 pairs of paging-only conversions, want 24", rebuilds)
			}
			if want, err = Convert(q); err != nil {
				t.Fatal(err)
			}
			sameStructure(t, g, want)

			// A moved paging op rebuilds the graph, and so does an extra
			// layer.
			for _, edit := range []func(){
				func() { q.MemOps = []MemOp{{Device: 3, Bytes: 1 << 20}} },
				func() { q.Layers++ },
			} {
				edit()
				if err := ConvertInto(g, q); err != nil {
					t.Fatal(err)
				}
				if n, _ := g.Build(); n == build {
					t.Fatal("a new shape did not rebuild the graph")
				}
				build, _ = g.Build()
				if want, err = Convert(q); err != nil {
					t.Fatal(err)
				}
				sameStructure(t, g, want)
			}
		})
	}
}

func TestConvertErrors(t *testing.T) {
	tp := topo(t, network.Tensor, 2, 0, 0)

	p := baseParams(t, tp)
	p.Layers = 0
	if _, err := Convert(p); err == nil {
		t.Fatal("zero layers must fail")
	}

	p = baseParams(t, tp)
	p.Block.Attn = nil
	if _, err := Convert(p); err == nil {
		t.Fatal("empty attention must fail")
	}

	p = baseParams(t, tp)
	p.Placement = PIMPool
	if _, err := Convert(p); err == nil {
		t.Fatal("pim placement without pool must fail")
	}
}

func TestDistributeLayers(t *testing.T) {
	cases := []struct {
		n, s int
		want []int
	}{
		{4, 2, []int{2, 2}},
		{5, 2, []int{3, 2}},
		{48, 64, append(ones(48), zeros(16)...)},
		{7, 3, []int{3, 2, 2}},
	}
	for _, c := range cases {
		got := distributeLayers(nil, c.n, c.s)
		if len(got) != len(c.want) {
			t.Fatalf("distributeLayers(%d,%d) len %d", c.n, c.s, len(got))
		}
		total := 0
		for i := range got {
			total += got[i]
			if got[i] != c.want[i] {
				t.Fatalf("distributeLayers(%d,%d) = %v", c.n, c.s, got)
			}
		}
		if total != c.n {
			t.Fatalf("layers lost: %v", got)
		}
	}
}

func ones(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

func zeros(n int) []int { return make([]int, n) }

// TestConvertRepeatBlocks: with RepeatBlocks each stage holding two or
// more layers stores its first block once as a span whose count is the
// stage's layer count, and the folded graph tallies exactly like the
// unrolled one.
func TestConvertRepeatBlocks(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tp     network.Topology
		layers int
		place  AttentionPlacement
		spans  []int // span count per folded stage
	}{
		{"tp2", topo(t, network.Tensor, 2, 0, 0), 4, HeadSplit, []int{4}},
		{"pp3", topo(t, network.Pipeline, 3, 0, 0), 7, HeadSplit, []int{3, 2, 2}},
		{"pp4-one-layer-stages", topo(t, network.Pipeline, 4, 0, 0), 5, HeadSplit, []int{2}},
		{"request-split", topo(t, network.Tensor, 2, 0, 0), 4, RequestSplit, []int{4}},
		// Two requests over two pool devices: every block assigns them alike.
		{"pim-pool-even", topo(t, network.Tensor, 2, 0, 2), 4, PIMPool, []int{4}},
		// Two requests over three pool devices: blocks differ, no span.
		{"pim-pool-odd", topo(t, network.Tensor, 2, 0, 3), 4, PIMPool, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := baseParams(t, tc.tp)
			p.Layers, p.Placement = tc.layers, tc.place
			p.Block.PIMAttn = p.Block.Attn
			unrolled, err := Convert(p)
			if err != nil {
				t.Fatal(err)
			}
			p.RepeatBlocks = true
			folded, err := Convert(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := folded.Validate(); err != nil {
				t.Fatal(err)
			}
			var counts []int
			for _, sp := range folded.Spans {
				counts = append(counts, sp.Count)
			}
			if !slices.Equal(counts, tc.spans) {
				t.Fatalf("span counts %v, want %v", counts, tc.spans)
			}
			if got, want := kinds(folded), kinds(unrolled); !maps.Equal(got, want) {
				t.Fatalf("folded graph tallies %+v, unrolled %+v", got, want)
			}
		})
	}
}

// TestValidateSpans: spans must be in range and disjoint, wait on their
// entry and reach their exit from every node, and be depended on from
// outside only through the exit. An error about a node names it by its
// ID, kind and device; one about a span's layout names the span.
func TestValidateSpans(t *testing.T) {
	us := simtime.Microsecond
	build := func() *Graph {
		g := New()
		e := g.AddCompute(0, us)
		a := g.AddCompute(0, us, e)
		b := g.AddCompute(1, us, e)
		x := g.AddAllReduce([]int{0, 1}, us, a, b)
		g.AddCompute(0, us, x)
		g.Spans = []Span{{First: 1, Len: 3, Count: 4}}
		return g
	}
	if err := build().Validate(); err != nil {
		t.Fatalf("well-formed span rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		edit func(g *Graph)
		want string
	}{
		"past the graph":   {func(g *Graph) { g.Spans[0].Len = 9 }, "span 0 "},
		"zero count":       {func(g *Graph) { g.Spans[0].Count = 0 }, "span 0 "},
		"overlapping":      {func(g *Graph) { g.Spans = append(g.Spans, Span{First: 2, Len: 1, Count: 2}) }, "span 1 "},
		"no entry":         {func(g *Graph) { g.Spans[0] = Span{First: 0, Len: 1, Count: 2} }, "node 0 (compute on device 0) does not wait"},
		"exit not reached": {func(g *Graph) { g.Spans[0].Len = 2 }, "node 1 (compute on device 0) does not reach"},
		"entry not waited": {func(g *Graph) { g.Nodes[2].Deps = nil }, "node 2 (compute on device 1) does not wait"},
		"interior escapes": {func(g *Graph) { g.Nodes[4].Deps = []int{1, 3} }, "node 4 (compute on device 0) depends on node 1"},
	} {
		g := build()
		tc.edit(g)
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", name, err, tc.want)
		}
	}
}
