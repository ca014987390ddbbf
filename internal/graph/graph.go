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
//
// # Builds
//
// Successive serving iterations mostly convert to the same graph
// structure with new durations. ConvertInto keeps, from the graph's last
// build, the inputs that decide its nodes, dependencies, resources and
// spans: the graph's shape. Converting an iteration of that shape writes
// only the node durations; any other iteration rebuilds the graph. Every
// rebuild, Reset and Add gives the graph a new build number (Build), so
// an executor compiles a graph's schedule plan once per build and reuses
// it while the build lasts. A hand-built graph is never a converted
// build.
//
// # Repeat spans
//
// The decoder blocks of one pipeline stage are identical: the same
// operators with the same durations on the same devices, each block
// waiting on the one before. A graph may store such a run once, as a
// Span: the template nodes of the first block plus a repeat count. The
// template's dependencies on nodes before it are the block's entry;
// repetition r+1 waits on repetition r's exit (the template's last node)
// in their place, and nodes after the span that depend on the exit wait
// on the last repetition's exit. A graph with spans therefore denotes
// the unrolled graph in which the template is copied Count times, the
// copies chained exit to entry, and every later node ID shifted past
// the copies — the graph the converter emits when folding is off.
// Validate checks the structure that makes this well defined: every
// template node reaches the exit, and nothing outside the template
// depends on a template node other than the exit.
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
	Duration simtime.Duration

	// Resources the node occupies for its whole duration. Compute nodes
	// occupy their device's compute unit; collectives occupy the network
	// ports of every participant; paging occupies the host DMA engine.
	Resources []Resource

	Deps []int // node IDs that must complete first
}

// String names the node in errors by its ID, its kind and the device of
// its first resource.
func (n *Node) String() string {
	if len(n.Resources) == 0 {
		return fmt.Sprintf("node %d (%s)", n.ID, n.Kind)
	}
	return fmt.Sprintf("node %d (%s on device %d)", n.ID, n.Kind, n.Resources[0].Device)
}

// Graph is a DAG of execution nodes. Nodes are stored in insertion order
// and node IDs equal slice indices.
//
// Node, dependency, and resource storage is arena-backed: the Add*
// helpers carve slices out of graph-owned backing arrays, so building a
// graph costs a handful of amortised allocations instead of several per
// node. A graph is converted once per simulated iteration, and rebuilt
// only when the iteration's shape differs from the one it holds.
type Graph struct {
	Nodes []*Node

	// Spans lists the graph's repeat spans in node order (see the
	// package documentation); empty for a fully unrolled graph.
	Spans []Span

	nodeArena []Node
	depArena  []int
	resArena  []Resource

	conv  convScratch // ConvertInto's reused buffers
	shape shape       // set by ConvertInto; zero on a hand-built graph
	build uint64      // advanced by every Reset and Add (see Build)

	// Validate's scratch for repeat spans: the span owning each template
	// node, and whether a template node waits on its span's entry.
	owner []int32
	fed   []bool
}

// Span is a run of Count identical blocks stored once: nodes
// [First, First+Len) are the first block, and the executor runs them
// Count times, each repetition waiting on the previous one's exit.
type Span struct {
	First, Len, Count int
}

// Exit returns the template's last node, the block's one exit.
func (s Span) Exit() int { return s.First + s.Len - 1 }

// Contains reports whether node id belongs to the template.
func (s Span) Contains(id int) bool { return id >= s.First && id < s.First+s.Len }

// Build returns the graph's build number and whether ConvertInto made
// the current build. The number changes on every Reset and Add, so it
// changes whenever ConvertInto rebuilds the graph and never when it only
// rewrites durations: a converted graph with the number of an earlier
// one has that graph's structure. A hand-built graph may have been
// edited in place since its last Add, so its number proves nothing.
// Edit a converted graph's structure only through Reset or the Add*
// builders, which end its converted build; writing node durations keeps
// it.
func (g *Graph) Build() (n uint64, converted bool) { return g.build, g.shape.layers > 0 }

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// Reset clears the graph for rebuilding while retaining its allocated
// capacity, and ends its build, so the next ConvertInto builds afresh.
// Nodes of the previous build are invalidated.
func (g *Graph) Reset() {
	g.Nodes = g.Nodes[:0]
	g.Spans = g.Spans[:0]
	g.nodeArena = g.nodeArena[:0]
	g.depArena = g.depArena[:0]
	g.resArena = g.resArena[:0]
	g.shape = shape{}
	g.build++
}

// Add appends a node, assigning its ID, and returns the ID. The graph
// starts a new build, which is not a converted one.
func (g *Graph) Add(n *Node) int {
	g.shape = shape{}
	g.build++
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
func (g *Graph) AddCompute(device int, d simtime.Duration, deps ...int) int {
	n := g.alloc()
	n.Kind = Compute
	n.Duration = d
	n.Resources = g.holdRes(Resource{ResCompute, device})
	n.Deps = g.holdDeps(deps)
	return n.ID
}

// AddAllReduce appends a collective across the given devices.
func (g *Graph) AddAllReduce(devices []int, d simtime.Duration, deps ...int) int {
	if len(g.resArena)+len(devices) > cap(g.resArena) {
		g.resArena = make([]Resource, 0, growCap(2*len(g.Nodes)+len(devices)))
	}
	start := len(g.resArena)
	for _, dev := range devices {
		g.resArena = append(g.resArena, Resource{ResNetwork, dev})
	}
	n := g.alloc()
	n.Kind = AllReduce
	n.Duration = d
	n.Resources = g.resArena[start:len(g.resArena):len(g.resArena)]
	n.Deps = g.holdDeps(deps)
	return n.ID
}

// AddP2P appends a point-to-point transfer occupying both endpoints'
// network ports.
func (g *Graph) AddP2P(src, dst int, d simtime.Duration, deps ...int) int {
	n := g.alloc()
	n.Kind = P2P
	n.Duration = d
	n.Resources = g.holdRes(Resource{ResNetwork, src}, Resource{ResNetwork, dst})
	n.Deps = g.holdDeps(deps)
	return n.ID
}

// AddMemOp appends a host paging transfer on the device's DMA engine.
func (g *Graph) AddMemOp(device int, load bool, d simtime.Duration, deps ...int) int {
	kind := MemStore
	if load {
		kind = MemLoad
	}
	n := g.alloc()
	n.Kind = kind
	n.Duration = d
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
			return fmt.Errorf("graph: %v has no resources", n)
		}
		if n.Duration < 0 {
			return fmt.Errorf("graph: %v has negative duration", n)
		}
		for _, d := range n.Deps {
			if d < 0 || d >= len(g.Nodes) {
				return fmt.Errorf("graph: %v depends on unknown node %d", n, d)
			}
			if d >= n.ID {
				return fmt.Errorf("graph: %v depends on later node %d (not topological)", n, d)
			}
		}
	}
	if len(g.Spans) > 0 {
		return g.validateSpans()
	}
	return nil
}

// validateSpans checks the repeat spans against the shape the package
// documentation defines: in order, disjoint, and within the graph; every
// template node waits, directly or through other template nodes, on the
// block's entry, and reaches its single exit; and no node outside a
// template depends on its interior (the repetitions would leave such a
// dependency undefined). Together these keep repetitions from
// overlapping: repetition r+1 starts after r's exit, which waits on all
// of r.
func (g *Graph) validateSpans() error {
	owner := growZero(&g.owner, len(g.Nodes))
	fed := growZero(&g.fed, len(g.Nodes))
	next := 0
	for k, sp := range g.Spans {
		if sp.Len < 1 || sp.Count < 1 || sp.First < next || sp.First+sp.Len > len(g.Nodes) {
			return fmt.Errorf("graph: span %d %+v is empty, overlaps or runs past the graph", k, sp)
		}
		next = sp.First + sp.Len
		for id := sp.First; id < sp.Exit(); id++ {
			owner[id] = int32(k + 1)
		}
	}
	for k, sp := range g.Spans {
		for id := sp.First; id <= sp.Exit(); id++ {
			for _, d := range g.Nodes[id].Deps {
				fed[id] = fed[id] || d < sp.First || fed[d]
				if owner[d] == int32(k+1) {
					owner[d] = -int32(k + 1) // reached by a later template node
				}
			}
			if !fed[id] {
				return fmt.Errorf("graph: span %d %v does not wait on the span's entry", k, g.Nodes[id])
			}
		}
		for id := sp.First; id < sp.Exit(); id++ {
			if owner[id] != -int32(k+1) {
				return fmt.Errorf("graph: span %d %v does not reach the span's exit", k, g.Nodes[id])
			}
		}
	}
	// Every interior template node is now marked -(its span + 1).
	for _, n := range g.Nodes {
		for _, d := range n.Deps {
			if o := owner[d]; o != 0 && !g.Spans[-o-1].Contains(n.ID) {
				return fmt.Errorf("graph: %v depends on node %d inside another span's block", n, d)
			}
		}
	}
	return nil
}

// growZero returns (*buf)[:n] zeroed, growing the backing array as
// needed.
func growZero[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	s := (*buf)[:n]
	clear(s)
	return s
}
