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
		{Device: 0, Bytes: 1 << 20, Load: true, Label: "reload.r5"},
		{Device: 1, Bytes: 1 << 20, Load: false, Label: "evict.r6"},
	}
	g, err := Convert(p)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Summarize()
	if s.ByKind[MemLoad] != 1 || s.ByKind[MemStore] != 1 {
		t.Fatalf("mem nodes %v", s.ByKind)
	}
	// The embed on device 0 must depend on its reload.
	var embedDeps []int
	for _, n := range g.Nodes {
		if n.Label == "embed" && n.Resources[0].Device == 0 {
			embedDeps = n.Deps
		}
	}
	if len(embedDeps) != 1 || g.Nodes[embedDeps[0]].Kind != MemLoad {
		t.Fatalf("embed deps %v", embedDeps)
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
