package graph

import (
	"reflect"
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

func TestConvertSingleDevice(t *testing.T) {
	p := baseParams(t, topo(t, network.Tensor, 1, 0, 0))
	g, err := Convert(p)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Summarize()
	// embed + 4 layers x (pre, attn, post) + head; no comm at TP1.
	if s.ByKind[Compute] != 1+4*3+1 {
		t.Fatalf("compute nodes = %d", s.ByKind[Compute])
	}
	if s.ByKind[AllReduce] != 0 || s.ByKind[P2P] != 0 {
		t.Fatal("TP1 PP1 must have no communication")
	}
}

func TestConvertTensorParallel(t *testing.T) {
	p := baseParams(t, topo(t, network.Tensor, 4, 0, 0))
	g, err := Convert(p)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Summarize()
	// One merged all-reduce per layer plus the logit gather.
	if s.ByKind[AllReduce] != 4+1 {
		t.Fatalf("allreduce nodes = %d", s.ByKind[AllReduce])
	}
	// 4 workers x (embed + 4x3 + head).
	if s.ByKind[Compute] != 4*(1+4*3+1) {
		t.Fatalf("compute nodes = %d", s.ByKind[Compute])
	}
}

func TestConvertPipeline(t *testing.T) {
	p := baseParams(t, topo(t, network.Pipeline, 4, 0, 0))
	g, err := Convert(p)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Summarize()
	// 3 stage boundaries, one transfer each (TP1).
	if s.ByKind[P2P] != 3 {
		t.Fatalf("p2p nodes = %d", s.ByKind[P2P])
	}
	if s.ByKind[AllReduce] != 0 {
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
	if g.Summarize().ByKind[P2P] != 7 {
		t.Fatalf("p2p = %d", g.Summarize().ByKind[P2P])
	}
}

func TestConvertRequestSplit(t *testing.T) {
	p := baseParams(t, topo(t, network.Tensor, 2, 0, 0))
	p.Placement = RequestSplit
	g, err := Convert(p)
	if err != nil {
		t.Fatal(err)
	}
	// Each layer: 2 pre + 2 attn (one per request, round-robined) + 2 post.
	found := 0
	for _, n := range g.Nodes {
		if strings.Contains(n.Label, "attn.r") {
			found++
			// Full-head duration = local x TP.
			want := p.Block.Attn[reqOf(n.Label)] * 2
			if n.Duration != want {
				t.Fatalf("node %s duration %v, want %v", n.Label, n.Duration, want)
			}
		}
	}
	if found != 4*2 {
		t.Fatalf("request-split attention nodes = %d", found)
	}
}

func reqOf(label string) int {
	if strings.Contains(label, ".r0") {
		return 0
	}
	return 1
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
	s := g.Summarize()
	// Per layer per request: transfer out + back = 2 P2P.
	if s.ByKind[P2P] != 4*2*2 {
		t.Fatalf("pim transfers = %d", s.ByKind[P2P])
	}
	// PIM compute nodes land on pool devices (IDs 2,3).
	pim := 0
	for _, n := range g.Nodes {
		if strings.HasSuffix(n.Label, ".pim") {
			pim++
			if dev := n.Resources[0].Device; dev != 2 && dev != 3 {
				t.Fatalf("pim compute on device %d", dev)
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
	blocks := 0
	for _, n := range g.Nodes {
		if strings.HasSuffix(n.Label, ".block") {
			blocks++
			if n.Duration != 50*simtime.Microsecond {
				t.Fatal("monolithic duration")
			}
		}
	}
	if blocks != 4*2 {
		t.Fatalf("monolithic blocks = %d", blocks)
	}
}

func TestConvertMemOps(t *testing.T) {
	p := baseParams(t, topo(t, network.Tensor, 2, 0, 0))
	p.MemOps = []MemOp{
		{Device: 0, Bytes: 1 << 20, Load: true, ReqID: 5},
		{Device: 1, Bytes: 1 << 20, Load: false, ReqID: 6},
		{Device: 0, Bytes: 1 << 20, Load: false, ReqID: 6},
	}
	g, err := Convert(p)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Summarize()
	if s.ByKind[MemLoad] != 1 || s.ByKind[MemStore] != 2 {
		t.Fatalf("mem nodes %v", s.ByKind)
	}
	// The embed on device 0 must wait on its reload and its eviction.
	var embedDeps []int
	for _, n := range g.Nodes {
		if n.Label == "embed" && n.Resources[0].Device == 0 {
			embedDeps = n.Deps
		}
	}
	if len(embedDeps) != 2 || g.Nodes[embedDeps[0]].Kind != MemLoad || g.Nodes[embedDeps[1]].Kind != MemStore {
		t.Fatalf("embed deps %v", embedDeps)
	}
	for i, want := range []string{"reload.r5", "evict.r6", "evict.r6"} {
		if got := g.Nodes[i].Label; got != want {
			t.Fatalf("paging node %d label %q, want %q", i, got, want)
		}
	}
}

// shapeOf converts p into a fresh graph and returns its shape.
func shapeOf(t *testing.T, p Params) Shape {
	t.Helper()
	g, err := Convert(p)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := g.Shape()
	if !ok {
		t.Fatal("converted graph has no shape")
	}
	return s
}

// TestShapeKey: every Params field that decides the graph's nodes,
// dependencies, resources or spans changes its shape, and the fields
// that only set durations and payloads do not.
func TestShapeKey(t *testing.T) {
	base := func() Params {
		p := baseParams(t, topo(t, network.Hybrid, 4, 2, 0))
		p.Placement = RequestSplit
		p.MemOps = []MemOp{{Device: 0, Bytes: 1 << 20, Load: true, ReqID: 1}}
		return p
	}
	want := shapeOf(t, base())
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
		p := base()
		edit(&p)
		if shapeOf(t, p) == want {
			t.Errorf("%s: shape unchanged", name)
		}
	}
	for name, edit := range map[string]func(p *Params){
		"durations":   func(p *Params) { p.Block.Pre, p.EmbedDur, p.HeadDur = 1, 2, 3 },
		"payloads":    func(p *Params) { p.ActBytes, p.HeadGatherBytes, p.MemOps[0].Bytes = 1, 2, 3 },
		"link":        func(p *Params) { p.Topo.Link.BandwidthBytes /= 2 },
		"request IDs": func(p *Params) { p.Block.Attn = map[int]simtime.Duration{7: 1, 9: 2} },
		"paging req":  func(p *Params) { p.MemOps[0].ReqID = 4 },
	} {
		p := base()
		edit(&p)
		if shapeOf(t, p) != want {
			t.Errorf("%s: shape changed", name)
		}
	}
	g := New()
	g.AddCompute("a", 0, 1)
	if _, ok := g.Shape(); ok {
		t.Fatal("hand-built graph has a shape")
	}
}

// sameStructure fails unless got and want hold equal nodes and spans,
// labels aside.
func sameStructure(t *testing.T, got, want *Graph) {
	t.Helper()
	if len(got.Nodes) != len(want.Nodes) || !slices.Equal(got.Spans, want.Spans) {
		t.Fatalf("%d nodes, spans %v; want %d, %v", len(got.Nodes), got.Spans, len(want.Nodes), want.Spans)
	}
	for i, n := range got.Nodes {
		w := want.Nodes[i]
		if n.ID != w.ID || n.Kind != w.Kind || n.Duration != w.Duration || n.Bytes != w.Bytes ||
			!slices.Equal(n.Resources, w.Resources) || !slices.Equal(n.Deps, w.Deps) {
			t.Fatalf("node %d: %+v, want %+v", i, *n, *w)
		}
	}
}

// TestConvertIntoReusesShape: converting an iteration of the shape a
// graph already holds rewrites the durations and payloads in place,
// building no node or label, and leaves the graph equal to a fresh
// conversion; a new shape rebuilds it.
func TestConvertIntoReusesShape(t *testing.T) {
	for _, place := range []AttentionPlacement{HeadSplit, RequestSplit, PIMPool} {
		t.Run(place.String(), func(t *testing.T) {
			p := baseParams(t, topo(t, network.Hybrid, 4, 2, 2))
			p.Placement, p.RepeatBlocks = place, true
			p.Block.PIMAttn = p.Block.Attn
			p.MemOps = []MemOp{{Device: 1, Bytes: 1 << 20, ReqID: 0}}
			g := New()
			if err := ConvertInto(g, p); err != nil {
				t.Fatal(err)
			}
			first := g.Nodes[0]

			q := p
			q.Block = BlockWork{Pre: 3, Post: 4, Attn: map[int]simtime.Duration{5: 6, 8: 7}}
			q.Block.PIMAttn = map[int]simtime.Duration{5: 11, 8: 12}
			q.ReqBytes = map[int]int64{5: 100, 8: 200}
			q.EmbedDur, q.HeadDur, q.ActBytes, q.HeadGatherBytes = 1, 2, 300, 400
			q.MemOps = []MemOp{{Device: 1, Bytes: 1 << 10, ReqID: 8}}
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
			if g.Nodes[0] != first {
				t.Fatal("a held shape was rebuilt")
			}
			sameStructure(t, g, want)
			if m := g.Nodes[0]; m.Kind != MemStore || m.Bytes != q.MemOps[0].Bytes {
				t.Fatalf("paging node %+v after a held-shape conversion", *m)
			}

			// A moved paging op rebuilds the graph, and so does an extra
			// layer.
			for _, edit := range []func(){
				func() { q.MemOps[0].Device = 2 },
				func() { q.Layers++ },
			} {
				edit()
				if err := ConvertInto(g, q); err != nil {
					t.Fatal(err)
				}
				if want, err = Convert(q); err != nil {
					t.Fatal(err)
				}
				sameStructure(t, g, want)
				for i, n := range g.Nodes {
					if n.Label != want.Nodes[i].Label {
						t.Fatalf("rebuilt node %d label %q, want %q", i, n.Label, want.Nodes[i].Label)
					}
				}
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
// stage's layer count, and the folded graph summarises exactly like the
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
			if got, want := folded.Summarize(), unrolled.Summarize(); !reflect.DeepEqual(got, want) {
				t.Fatalf("folded summary %+v, unrolled %+v", got, want)
			}
		})
	}
}

// TestValidateSpans: spans must be in range and disjoint, wait on their
// entry and reach their exit from every node, and be depended on from
// outside only through the exit.
func TestValidateSpans(t *testing.T) {
	us := simtime.Microsecond
	build := func() *Graph {
		g := New()
		e := g.AddCompute("entry", 0, us)
		a := g.AddCompute("a", 0, us, e)
		b := g.AddCompute("b", 1, us, e)
		x := g.AddAllReduce("x", []int{0, 1}, us, 0, a, b)
		g.AddCompute("tail", 0, us, x)
		g.Spans = []Span{{First: 1, Len: 3, Count: 4}}
		return g
	}
	if err := build().Validate(); err != nil {
		t.Fatalf("well-formed span rejected: %v", err)
	}
	for name, edit := range map[string]func(g *Graph){
		"past the graph":   func(g *Graph) { g.Spans[0].Len = 9 },
		"zero count":       func(g *Graph) { g.Spans[0].Count = 0 },
		"overlapping":      func(g *Graph) { g.Spans = append(g.Spans, Span{First: 2, Len: 1, Count: 2}) },
		"no entry":         func(g *Graph) { g.Spans[0] = Span{First: 0, Len: 1, Count: 2} },
		"exit not reached": func(g *Graph) { g.Spans[0].Len = 2 },
		"entry not waited": func(g *Graph) { g.Nodes[2].Deps = nil },
		"interior escapes": func(g *Graph) { g.Nodes[4].Deps = []int{1, 3} },
	} {
		g := build()
		edit(g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: malformed span accepted", name)
		}
	}
}
