package graph

import (
	"strings"
	"testing"
)

func TestBuilders(t *testing.T) {
	g := New()
	a := g.AddCompute(0, 10)
	b := g.AddCompute(1, 20, a)
	c := g.AddAllReduce([]int{0, 1}, 5, a, b)
	d := g.AddP2P(0, 1, 3, c)
	e := g.AddMemOp(0, true, 7)
	f := g.AddMemOp(1, false, 7, e)

	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 6 {
		t.Fatalf("nodes = %d", len(g.Nodes))
	}
	if g.Nodes[c].Kind != AllReduce || len(g.Nodes[c].Resources) != 2 {
		t.Fatal("allreduce resources")
	}
	if g.Nodes[d].Kind != P2P || g.Nodes[d].Resources[0].Class != ResNetwork {
		t.Fatal("p2p resources")
	}
	if g.Nodes[e].Kind != MemLoad || g.Nodes[f].Kind != MemStore {
		t.Fatal("mem kinds")
	}
	if g.Nodes[f].Resources[0].Class != ResHostDMA {
		t.Fatal("mem resource class")
	}
}

func TestDedupDeps(t *testing.T) {
	g := New()
	a := g.AddCompute(0, 1)
	b := g.AddCompute(0, 1, a, a, a)
	if len(g.Nodes[b].Deps) != 1 {
		t.Fatalf("deps = %v", g.Nodes[b].Deps)
	}
}

// TestValidateErrors: each malformed node is rejected with an error
// that names it by its ID, kind and device.
func TestValidateErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		node Node
		want string
	}{
		{"resourceless", Node{ID: 0, Kind: MemLoad, Duration: 1}, "node 0 (memload) has no resources"},
		{"dangling dep", Node{ID: 0, Kind: Compute, Duration: 1, Resources: []Resource{{ResCompute, 3}}, Deps: []int{5}},
			"node 0 (compute on device 3) depends on unknown node 5"},
		{"self dep", Node{ID: 0, Kind: P2P, Duration: 1, Resources: []Resource{{ResNetwork, 1}, {ResNetwork, 2}}, Deps: []int{0}},
			"node 0 (p2p on device 1) depends on later node 0"},
		{"negative duration", Node{ID: 0, Kind: AllReduce, Duration: -1, Resources: []Resource{{ResNetwork, 2}}},
			"node 0 (allreduce on device 2) has negative duration"},
	} {
		g := New()
		g.Nodes = append(g.Nodes, &tc.node)
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestNodeKindStrings(t *testing.T) {
	for k, want := range map[NodeKind]string{
		Compute: "compute", AllReduce: "allreduce", P2P: "p2p",
		MemLoad: "memload", MemStore: "memstore",
	} {
		if k.String() != want {
			t.Fatalf("%v", k)
		}
	}
}
