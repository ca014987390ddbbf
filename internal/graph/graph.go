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
// # Shapes
//
// Successive serving iterations mostly convert to the same graph
// structure with new durations. ConvertInto stamps each graph with its
// Shape, the comparable key of everything that decides nodes,
// dependencies, resources and spans. Converting into a graph that
// already holds the same shape writes only the durations and payloads;
// the executor compiles the shape's schedule plan once and reuses it
// while the shape lasts. A hand-built graph has no shape.
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
	Label    string // informational; see ConvertInto for request IDs
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
// node. A graph is converted once per simulated iteration, and rebuilt
// only when the iteration's Shape differs from the one it holds.
type Graph struct {
	Nodes []*Node

	// Spans lists the graph's repeat spans in node order (see the
	// package documentation); empty for a fully unrolled graph.
	Spans []Span

	nodeArena []Node
	depArena  []int
	resArena  []Resource

	conv  convScratch // ConvertInto's reused buffers
	shape Shape       // set by ConvertInto; zero on a hand-built graph

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

// Shape identifies the structure of a converted graph: the Params fields
// that decide its nodes, dependencies, resources and spans. Two
// conversions with equal shapes differ only in node durations, payloads
// and the request IDs in labels. The zero Shape belongs to no converted
// graph. The counts are int32 to keep the key small: every conversion
// compares one, and the graph and the executor's plan each hold one.
type Shape struct {
	Stages, TP, PIMPool int32 // the topology's device layout
	Layers              int32
	Reqs                int32 // requests of a per-request placement, else 0
	Monolithic          bool  // fused block interior
	RepeatBlocks        bool
	Gather              bool // logit all-gather emitted
	Placement           AttentionPlacement

	// pages packs each paging op's device and direction as a uvarint.
	pages string
}

// Shape returns the graph's shape and true when ConvertInto built it,
// or false for a hand-built graph. Edit a converted graph's structure
// only through Reset or the Add* builders, which drop the shape; writing
// node durations keeps it.
func (g *Graph) Shape() (Shape, bool) { return g.shape, g.shape.Layers > 0 }

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// Reset clears the graph for rebuilding while retaining its allocated
// capacity, and drops its shape, so the next ConvertInto builds afresh.
// Nodes of the previous build are invalidated.
func (g *Graph) Reset() {
	g.Nodes = g.Nodes[:0]
	g.Spans = g.Spans[:0]
	g.nodeArena = g.nodeArena[:0]
	g.depArena = g.depArena[:0]
	g.resArena = g.resArena[:0]
	g.shape = Shape{}
}

// Add appends a node, assigning its ID, and returns the ID. The graph
// stops being a converted shape.
func (g *Graph) Add(n *Node) int {
	g.shape = Shape{}
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
				return fmt.Errorf("graph: span %d node %d (%s) does not wait on the span's entry", k, id, g.Nodes[id].Label)
			}
		}
		for id := sp.First; id < sp.Exit(); id++ {
			if owner[id] != -int32(k+1) {
				return fmt.Errorf("graph: span %d node %d (%s) does not reach the span's exit", k, id, g.Nodes[id].Label)
			}
		}
	}
	// Every interior template node is now marked -(its span + 1).
	for _, n := range g.Nodes {
		for _, d := range n.Deps {
			if o := owner[d]; o != 0 && !g.Spans[-o-1].Contains(n.ID) {
				return fmt.Errorf("graph: node %d (%s) depends on node %d inside another span's block", n.ID, n.Label, d)
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

// Stats summarises a graph.
type Stats struct {
	Nodes      int
	ByKind     map[NodeKind]int
	TotalWork  simtime.Duration // sum of compute durations
	TotalComm  simtime.Duration // sum of communication durations
	TotalBytes int64            // communication + paging payload
}

// Summarize computes graph statistics. Template nodes of a repeat span
// count once per repetition, so a folded graph summarises like its
// unrolled form.
func (g *Graph) Summarize() Stats {
	s := Stats{ByKind: map[NodeKind]int{}}
	spans := g.Spans
	for _, n := range g.Nodes {
		for len(spans) > 0 && n.ID > spans[0].Exit() {
			spans = spans[1:]
		}
		reps := 1
		if len(spans) > 0 && spans[0].Contains(n.ID) {
			reps = spans[0].Count
		}
		s.Nodes += reps
		s.ByKind[n.Kind] += reps
		switch n.Kind {
		case Compute:
			s.TotalWork += simtime.Duration(reps) * n.Duration
		default:
			s.TotalComm += simtime.Duration(reps) * n.Duration
			s.TotalBytes += int64(reps) * n.Bytes
		}
	}
	return s
}
