// Package graph defines the execution graph the system simulator replays —
// the role Chakra execution traces play between LLMServingSim's graph
// converter and ASTRA-sim.
//
// Nodes are compute spans pinned to a device, communication operations
// (ring all-reduce within a tensor-parallel group, point-to-point
// activation transfers between pipeline stages or accelerator pools), and
// host-memory paging transfers for evicted KV-cache pages. Edges are
// dependencies. Durations are precomputed analytically — compute durations
// come from the execution engines' traces, communication durations from
// the network cost models — and the system simulator resolves resource
// contention and overlap.
package graph

import (
	"fmt"

	"repro/internal/simtime"
)

// NodeKind classifies execution graph nodes.
type NodeKind int

const (
	Compute   NodeKind = iota // engine work on one device
	AllReduce                 // collective within a node group
	P2P                       // point-to-point transfer between devices
	MemLoad                   // host -> device KV page reload
	MemStore                  // device -> host KV page eviction
)

func (k NodeKind) String() string {
	switch k {
	case Compute:
		return "compute"
	case AllReduce:
		return "allreduce"
	case P2P:
		return "p2p"
	case MemLoad:
		return "memload"
	case MemStore:
		return "memstore"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// ResourceClass separates the execution resources of a device so that
// communication can overlap compute, as in ASTRA-sim.
type ResourceClass int

const (
	ResCompute ResourceClass = iota // the accelerator's execution units
	ResNetwork                      // the device's network port
	ResHostDMA                      // the device's host-link DMA engine
)

// Resource identifies one serially-occupied resource in the system.
type Resource struct {
	Class  ResourceClass
	Device int
}

// Node is one vertex of the execution graph.
type Node struct {
	ID       int
	Kind     NodeKind
	Label    string
	Duration simtime.Duration
	Bytes    int64 // payload for communication/memory nodes (informational)

	// Resources the node occupies for its whole duration. Compute nodes
	// occupy their device's compute unit; collectives occupy the network
	// ports of every participant; paging occupies the host DMA engine.
	Resources []Resource

	Deps []int // node IDs that must complete first
}

// Graph is a DAG of execution nodes. Nodes are stored in insertion order
// and node IDs equal slice indices.
//
// Node, dependency, and resource storage is arena-backed: the Add*
// helpers carve slices out of graph-owned backing arrays, so building a
// graph costs a handful of amortised allocations instead of several per
// node — graphs are built and discarded once per simulated iteration,
// squarely on the simulator's hot path.
type Graph struct {
	Nodes []*Node

	nodeArena []Node
	depArena  []int
	resArena  []Resource

	conv convScratch // ConvertInto's reused buffers
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// Reset clears the graph for rebuilding while retaining its allocated
// capacity. One graph is built and executed per simulated iteration;
// drivers that reuse a Graph + ConvertInto reach a steady state where
// graph construction allocates nothing. Nodes of the previous build are
// invalidated.
func (g *Graph) Reset() {
	g.Nodes = g.Nodes[:0]
	g.nodeArena = g.nodeArena[:0]
	g.depArena = g.depArena[:0]
	g.resArena = g.resArena[:0]
}

// Add appends a node, assigning its ID, and returns the ID.
func (g *Graph) Add(n *Node) int {
	n.ID = len(g.Nodes)
	g.Nodes = append(g.Nodes, n)
	return n.ID
}

// alloc carves a zeroed node out of the arena, appends it, and returns
// it for the caller to fill in place (avoiding a full Node copy per
// node).
func (g *Graph) alloc() *Node {
	if len(g.nodeArena) == cap(g.nodeArena) {
		g.nodeArena = make([]Node, 0, growCap(len(g.Nodes)))
	}
	g.nodeArena = append(g.nodeArena, Node{})
	n := &g.nodeArena[len(g.nodeArena)-1]
	g.Add(n)
	return n
}

// growCap sizes a fresh arena block at twice the current graph size, so
// a reused graph converges on one block that holds a whole build (Reset
// keeps only the newest block).
func growCap(n int) int {
	if n < 32 {
		return 64
	}
	return 2 * n
}

// holdDeps copies a dependency list into the arena, dropping duplicates
// (dependency lists are tiny, so a linear scan beats a set).
func (g *Graph) holdDeps(deps []int) []int {
	if len(deps) == 0 {
		return nil
	}
	if len(g.depArena)+len(deps) > cap(g.depArena) {
		g.depArena = make([]int, 0, growCap(4*len(g.Nodes)+len(deps)))
	}
	start := len(g.depArena)
outer:
	for i, d := range deps {
		for _, prev := range deps[:i] {
			if prev == d {
				continue outer
			}
		}
		g.depArena = append(g.depArena, d)
	}
	return g.depArena[start:len(g.depArena):len(g.depArena)]
}

// holdRes copies a resource list into the arena.
func (g *Graph) holdRes(res ...Resource) []Resource {
	if len(g.resArena)+len(res) > cap(g.resArena) {
		g.resArena = make([]Resource, 0, growCap(2*len(g.Nodes)+len(res)))
	}
	start := len(g.resArena)
	g.resArena = append(g.resArena, res...)
	return g.resArena[start:len(g.resArena):len(g.resArena)]
}

// AddCompute appends a compute node on the given device.
func (g *Graph) AddCompute(label string, device int, d simtime.Duration, deps ...int) int {
	n := g.alloc()
	n.Kind = Compute
	n.Label = label
	n.Duration = d
	n.Resources = g.holdRes(Resource{ResCompute, device})
	n.Deps = g.holdDeps(deps)
	return n.ID
}

// AddAllReduce appends a collective across the given devices.
func (g *Graph) AddAllReduce(label string, devices []int, d simtime.Duration, bytes int64, deps ...int) int {
	if len(g.resArena)+len(devices) > cap(g.resArena) {
		g.resArena = make([]Resource, 0, growCap(2*len(g.Nodes)+len(devices)))
	}
	start := len(g.resArena)
	for _, dev := range devices {
		g.resArena = append(g.resArena, Resource{ResNetwork, dev})
	}
	n := g.alloc()
	n.Kind = AllReduce
	n.Label = label
	n.Duration = d
	n.Bytes = bytes
	n.Resources = g.resArena[start:len(g.resArena):len(g.resArena)]
	n.Deps = g.holdDeps(deps)
	return n.ID
}

// AddP2P appends a point-to-point transfer occupying both endpoints'
// network ports.
func (g *Graph) AddP2P(label string, src, dst int, d simtime.Duration, bytes int64, deps ...int) int {
	n := g.alloc()
	n.Kind = P2P
	n.Label = label
	n.Duration = d
	n.Bytes = bytes
	n.Resources = g.holdRes(Resource{ResNetwork, src}, Resource{ResNetwork, dst})
	n.Deps = g.holdDeps(deps)
	return n.ID
}

// AddMemOp appends a host paging transfer on the device's DMA engine.
func (g *Graph) AddMemOp(label string, device int, load bool, d simtime.Duration, bytes int64, deps ...int) int {
	kind := MemStore
	if load {
		kind = MemLoad
	}
	n := g.alloc()
	n.Kind = kind
	n.Label = label
	n.Duration = d
	n.Bytes = bytes
	n.Resources = g.holdRes(Resource{ResHostDMA, device})
	n.Deps = g.holdDeps(deps)
	return n.ID
}

// Validate checks the graph is a well-formed DAG: dependencies reference
// earlier nodes (the builders emit in topological order) and every node
// holds at least one resource.
func (g *Graph) Validate() error {
	for _, n := range g.Nodes {
		if len(n.Resources) == 0 {
			return fmt.Errorf("graph: node %d (%s) has no resources", n.ID, n.Label)
		}
		if n.Duration < 0 {
			return fmt.Errorf("graph: node %d (%s) has negative duration", n.ID, n.Label)
		}
		for _, d := range n.Deps {
			if d < 0 || d >= len(g.Nodes) {
				return fmt.Errorf("graph: node %d (%s) depends on unknown node %d", n.ID, n.Label, d)
			}
			if d >= n.ID {
				return fmt.Errorf("graph: node %d (%s) depends on later node %d (not topological)", n.ID, n.Label, d)
			}
		}
	}
	return nil
}

// Stats summarises a graph.
type Stats struct {
	Nodes      int
	ByKind     map[NodeKind]int
	TotalWork  simtime.Duration // sum of compute durations
	TotalComm  simtime.Duration // sum of communication durations
	TotalBytes int64            // communication + paging payload
}

// Summarize computes graph statistics.
func (g *Graph) Summarize() Stats {
	s := Stats{Nodes: len(g.Nodes), ByKind: map[NodeKind]int{}}
	for _, n := range g.Nodes {
		s.ByKind[n.Kind]++
		switch n.Kind {
		case Compute:
			s.TotalWork += n.Duration
		default:
			s.TotalComm += n.Duration
			s.TotalBytes += n.Bytes
		}
	}
	return s
}
