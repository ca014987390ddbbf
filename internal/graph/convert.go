package graph

import (
	"fmt"
	"slices"

	"repro/internal/network"
	"repro/internal/simtime"
)

// AttentionPlacement selects how the attention core is distributed, the
// axis along which LLMServingSim differs between homogeneous Megatron-style
// execution, Orca's selective batching, and the NPU+PIM pool system.
type AttentionPlacement int

const (
	// HeadSplit keeps attention on each tensor-parallel worker, sharded by
	// heads (classic Megatron execution).
	HeadSplit AttentionPlacement = iota
	// RequestSplit applies selective batching: each request's full-head
	// attention runs on one worker of the group, requests round-robined
	// across workers (Fig. 3).
	RequestSplit
	// PIMPool offloads each request's attention to a node of the PIM pool
	// with explicit transfer operators before and after (Fig. 5(b)).
	PIMPool
)

func (p AttentionPlacement) String() string {
	switch p {
	case HeadSplit:
		return "head-split"
	case RequestSplit:
		return "request-split"
	case PIMPool:
		return "pim-pool"
	default:
		return fmt.Sprintf("AttentionPlacement(%d)", int(p))
	}
}

// MemOp is a KV-cache paging action the scheduler decided on, to be
// inserted into the graph as a host transfer (Section IV-A, "KV
// cache-aware memory modeling").
type MemOp struct {
	Device int
	Bytes  int64
	Load   bool // true = reload from host, false = evict to host
}

// BlockWork carries one transformer block's simulated durations for a
// single tensor-parallel worker, as produced by the execution engine stack
// and split by trace.SplitSegmentsInto.
type BlockWork struct {
	Pre  simtime.Duration         // LayerNorm1 + QKV projection
	Post simtime.Duration         // Proj through final residual
	Attn map[int]simtime.Duration // per-request attention at local head count

	// PIMAttn is the per-request full-head attention time on a PIM device;
	// required when Placement is PIMPool.
	PIMAttn map[int]simtime.Duration

	// Monolithic, when positive, replaces the Pre/Attn/Post interior with
	// a single fused span per worker — the form the execution engine
	// stack's operator scheduler produces when sub-batch interleaving
	// overlaps work across heterogeneous engines inside one device node.
	Monolithic simtime.Duration
}

// Params configures one iteration's graph conversion.
type Params struct {
	Topo   network.Topology
	Layers int
	Block  BlockWork

	EmbedDur simtime.Duration // embedding, on every stage-0 worker
	HeadDur  simtime.Duration // LM head, on every last-stage worker

	// ActBytes is the activation payload per tensor-parallel worker at
	// stage boundaries and per all-reduce (totalNewTokens x hidden x dtype).
	ActBytes int64
	// HeadGatherBytes is the logit payload all-gathered after the LM head.
	HeadGatherBytes int64
	// ReqBytes is each request's activation payload, used for transfers to
	// and from the PIM pool; only PIMPool placement reads it.
	ReqBytes map[int]int64

	Placement AttentionPlacement
	MemOps    []MemOp

	// RepeatBlocks stores each pipeline stage's decoder blocks once, as
	// a repeat span (see Span), instead of emitting every block: the
	// graph-level form of model-redundancy reuse. A stage whose blocks
	// differ — a PIM pool whose per-request round-robin does not return
	// to the same device each block — stays unrolled.
	RepeatBlocks bool
}

// shape is the part of Params that decides a converted graph's nodes,
// dependencies, resources and spans, apart from the paging ops, which
// the converter keeps beside it (convScratch.pages). Two conversions of
// one shape and paging differ only in node durations. The zero shape
// belongs to no converted graph.
type shape struct {
	stages, tp, pimPool int32 // the topology's device layout
	layers              int32
	reqs                int32 // requests of a per-request placement, else 0
	monolithic          bool  // fused block interior
	repeatBlocks        bool
	gather              bool // logit all-gather emitted
	placement           AttentionPlacement
}

// Convert builds the execution graph of one serving iteration: embedding
// on stage 0, Layers transformer blocks distributed over pipeline stages
// (tensor-parallel within each stage, with all-reduce synchronisation),
// point-to-point activation transfers between stages, attention placed per
// Params.Placement, KV paging transfers, and the LM head on the final
// stage.
func Convert(p Params) (*Graph, error) {
	g := New()
	if err := ConvertInto(g, p); err != nil {
		return nil, err
	}
	return g, nil
}

// ConvertInto converts the iteration into g, reusing g's storage. When
// g's build came from an earlier ConvertInto of the same shape and
// paging ops, nothing is built: only the node durations are rewritten,
// and g keeps its build number. Otherwise g is rebuilt from scratch as
// a new build. Either way every node takes its duration from one slot
// vector computed per call (fillSlots), so the two paths cannot
// disagree.
func ConvertInto(g *Graph, p Params) error {
	topo := p.Topo
	if err := topo.Validate(); err != nil {
		return err
	}
	if p.Layers <= 0 {
		return fmt.Errorf("graph: layers must be positive, got %d", p.Layers)
	}
	if len(p.Block.Attn) == 0 && p.Block.Monolithic <= 0 {
		return fmt.Errorf("graph: block has no attention work (empty batch?)")
	}
	if p.Placement == PIMPool && p.Block.Monolithic <= 0 {
		if topo.PIMPool <= 0 {
			return fmt.Errorf("graph: PIM placement requires a PIM pool in the topology")
		}
		if len(p.Block.PIMAttn) == 0 {
			return fmt.Errorf("graph: PIM placement requires PIMAttn durations")
		}
	}

	cs := &g.conv
	cv := converter{convScratch: cs, g: g, topo: topo, p: &p}

	// The request-scattered placements need per-request identities in a
	// deterministic order; head-split batches only need the total, so the
	// sort is skipped on that fast path.
	cs.reqIDs = cs.reqIDs[:0]
	if p.Block.Monolithic <= 0 && p.Placement != HeadSplit {
		cs.reqIDs = appendSortedKeys(cs.reqIDs, p.Block.Attn)
	}
	cv.fillSlots()

	key := shape{
		stages: int32(topo.Stages), tp: int32(topo.TP), pimPool: int32(topo.PIMPool),
		layers:       int32(p.Layers),
		reqs:         int32(len(cs.reqIDs)),
		monolithic:   p.Block.Monolithic > 0,
		repeatBlocks: p.RepeatBlocks,
		gather:       topo.TP > 1 && p.HeadGatherBytes > 0,
		placement:    p.Placement,
	}
	if key != g.shape || !cs.samePages(p.MemOps) {
		g.Reset()
		cv.build()
		g.shape = key
	}
	for i, n := range g.Nodes {
		n.Duration = cs.vals[cs.slots[i]]
	}
	// The builders emit in topological order. The executor validates a
	// graph whenever it compiles the graph's build into a plan, so the
	// graph is not validated here.
	return nil
}

// The fixed value slots. The paging ops follow them, one slot each, and
// then the requests of a per-request placement: one slot per request
// for request-split attention, two for the PIM pool (the transfer each
// way, then the PIM compute).
const (
	slotEmbed = iota
	slotHead
	slotPre
	slotAttn // head-split attention of one worker
	slotPost
	slotBlock // fused block interior
	slotP2P   // stage-boundary activation transfer
	slotAllReduce
	slotGather
	slotPages
)

// fillSlots computes every duration of the iteration's graph into
// cv.vals.
func (cv *converter) fillSlots() {
	p, topo := cv.p, cv.topo
	var attn simtime.Duration
	if p.Placement == HeadSplit {
		for _, d := range p.Block.Attn {
			attn += d
		}
	}
	// Two ring all-reduces per block (after attention projection and
	// after FFN2) are merged into one collective node of doubled cost.
	v := append(slices.Grow(cv.vals[:0], slotPages+len(p.MemOps)+2*len(cv.reqIDs)),
		p.EmbedDur,
		p.HeadDur,
		p.Block.Pre,
		attn,
		p.Block.Post,
		p.Block.Monolithic,
		topo.P2P(p.ActBytes),
		2*topo.AllReduce(p.ActBytes, topo.TP),
		topo.AllGather(p.HeadGatherBytes, topo.TP),
	)
	for _, m := range p.MemOps {
		v = append(v, topo.HostTransfer(m.Bytes))
	}
	for _, r := range cv.reqIDs {
		if p.Placement == RequestSplit {
			// A worker's full-head cost is its local-head cost scaled by
			// the group size (heads are independent repetitions).
			v = append(v, p.Block.Attn[r]*simtime.Duration(topo.TP))
			continue
		}
		v = append(v, topo.P2P(p.ReqBytes[r]), p.Block.PIMAttn[r])
	}
	cv.vals = v
}

// build emits the graph's nodes into the empty g, each with the slot
// its duration comes from, and keeps the paging ops' devices and
// directions for samePages.
func (cv *converter) build() {
	g, topo, p := cv.g, cv.topo, cv.p
	// Size slots like the node arena, from the previous build's size.
	cv.slots = slices.Grow(cv.slots[:0], growCap(len(cv.slots)))

	// KV paging transfers run up front on each device's DMA engine; the
	// device's first compute of the iteration waits for them. Devices
	// left over from an earlier call keep an empty list.
	for dev, ids := range cv.memDeps {
		cv.memDeps[dev] = ids[:0]
	}
	if len(p.MemOps) > 0 && cv.memDeps == nil {
		cv.memDeps = make(map[int][]int, len(p.MemOps))
	}
	memDeps := cv.memDeps
	cv.pages = cv.pages[:0]
	for i, m := range p.MemOps {
		id := cv.slotted(g.AddMemOp(m.Device, m.Load, 0), slotPages+i)
		memDeps[m.Device] = append(memDeps[m.Device], id)
		cv.pages = append(cv.pages, MemOp{Device: m.Device, Load: m.Load})
	}
	cv.reqSlot = slotPages + len(p.MemOps)

	cv.layersOf = distributeLayers(cv.layersOf[:0], p.Layers, topo.Stages)
	layersOf := cv.layersOf

	// Stage device lists are needed several times each; fetch them once.
	// Every stage holds one tensor-parallel group of equal size.
	cv.devs = cv.devs[:0]
	for s := range topo.Stages {
		cv.devs = topo.AppendStageNodes(cv.devs, s)
	}
	group := len(cv.devs) / topo.Stages
	cv.stageDevs = cv.stageDevs[:0]
	for s := range topo.Stages {
		cv.stageDevs = append(cv.stageDevs, cv.devs[s*group:(s+1)*group])
	}
	stageDevs := cv.stageDevs

	// entry carries the per-worker positional state through the
	// pipeline: entry[i] is the node worker i's next compute must wait
	// on, aligned with the current stage's device list (worker i of a
	// stage feeds worker i of the next).
	cv.entry = slices.Grow(cv.entry[:0], group)[:group]
	cv.scratch = slices.Grow(cv.scratch[:0], group)[:group]

	// Stage 0: embedding on every worker.
	for i, dev := range stageDevs[0] {
		cv.entry[i] = cv.slotted(g.AddCompute(dev, 0, memDeps[dev]...), slotEmbed)
	}

	for s := 0; s < topo.Stages; s++ {
		devs := stageDevs[s]
		if s > 0 {
			// Activation transfer from the corresponding worker of the
			// previous stage.
			prevDevs := stageDevs[s-1]
			for i, dev := range devs {
				deps := append(cv.depsBuf[:0], cv.entry[i])
				deps = append(deps, memDeps[dev]...)
				cv.depsBuf = deps
				cv.entry[i] = cv.slotted(g.AddP2P(prevDevs[i], dev, 0, deps...), slotP2P)
			}
		}

		if n := layersOf[s]; p.RepeatBlocks && n > 1 && cv.blocksRepeat() {
			// Every block of the stage is the same, and its one exit (the
			// group all-reduce, or the single worker's last node) is the
			// next block's whole entry: store block 0 as a span.
			first := len(g.Nodes)
			cv.emitLayer(devs)
			g.Spans = append(g.Spans, Span{First: first, Len: len(g.Nodes) - first, Count: n})
			cv.pimRR += (n - 1) * len(cv.reqIDs)
			continue
		}
		for range layersOf[s] {
			cv.emitLayer(devs)
		}
	}

	// LM head on the final stage, then logits all-gather across the group.
	lastDevs := stageDevs[topo.Stages-1]
	headIDs := cv.scratch[:0]
	for i, dev := range lastDevs {
		headIDs = append(headIDs, cv.slotted(g.AddCompute(dev, 0, cv.entry[i]), slotHead))
	}
	if topo.TP > 1 && p.HeadGatherBytes > 0 {
		cv.slotted(g.AddAllReduce(lastDevs, 0, headIDs...), slotGather)
	}
}

// convScratch holds ConvertInto's buffers. It lives in the Graph and is
// reused across calls, so converting into a graph, or rebuilding it,
// allocates nothing once the buffers have grown.
type convScratch struct {
	reqIDs    []int              // request IDs in ascending order
	vals      []simtime.Duration // the iteration's durations by slot
	slots     []int32            // each node's slot in vals
	pages     []MemOp            // the build's paging ops, bytes left zero
	memDeps   map[int][]int      // per-device KV paging nodes
	layersOf  []int              // layer count per pipeline stage
	devs      []int              // every stage's devices, back to back
	stageDevs [][]int            // per-stage windows into devs

	entry   []int // per worker position: node its next compute waits on
	scratch []int // per-stage staging (pre/post/block/head node IDs)
	depsBuf []int

	// multiDeps backs the per-worker multi-dependency lists of the
	// request-scattered attention placements.
	multiDeps [][]int
}

// samePages reports whether ops page on the devices, in the directions,
// that the graph's build placed its paging nodes for.
func (cs *convScratch) samePages(ops []MemOp) bool {
	if len(ops) != len(cs.pages) {
		return false
	}
	for i, m := range ops {
		if m.Device != cs.pages[i].Device || m.Load != cs.pages[i].Load {
			return false
		}
	}
	return true
}

// converter holds the positional per-worker state of one Convert call
// over the graph's reused buffers, so the layer loop runs without
// per-layer maps or allocations.
type converter struct {
	*convScratch
	g    *Graph
	topo network.Topology
	p    *Params

	reqSlot int // slot of the first request's value
	pimRR   int
}

// slotted records the slot node id takes its values from, and returns
// id. Nodes are slotted in the order they are added.
func (cv *converter) slotted(id, slot int) int {
	cv.slots = append(cv.slots[:id], int32(slot))
	return id
}

// emitLayer adds one transformer block on a stage's devices at the
// current entry frontier, advancing it in place.
func (cv *converter) emitLayer(devs []int) {
	g, topo, p := cv.g, cv.topo, cv.p

	if p.Block.Monolithic > 0 {
		// Fused block interior (sub-batch interleaved execution): one
		// compute span per worker, then the group collective.
		ids := cv.scratch[:0]
		for i, dev := range devs {
			id := cv.slotted(g.AddCompute(dev, 0, cv.entry[i]), slotBlock)
			ids = append(ids, id)
			cv.entry[i] = id
		}
		if topo.TP > 1 {
			cid := cv.slotted(g.AddAllReduce(devs, 0, ids...), slotAllReduce)
			for i := range devs {
				cv.entry[i] = cid
			}
		}
		return
	}

	pre := cv.scratch[:len(devs)]
	for i, dev := range devs {
		pre[i] = cv.slotted(g.AddCompute(dev, 0, cv.entry[i]), slotPre)
	}

	// Attention core. The head-split fast path keeps one attention node
	// per worker in entry; the request-scattered placements accumulate
	// per-worker dependency lists in multiDeps.
	multi := false
	switch p.Placement {
	case HeadSplit:
		for i, dev := range devs {
			cv.entry[i] = cv.slotted(g.AddCompute(dev, 0, pre[i]), slotAttn)
		}
	case RequestSplit:
		// Each request's full-head attention on one worker.
		multi = true
		cv.resetMulti(len(devs))
		for i := range cv.reqIDs {
			w := i % len(devs)
			id := cv.slotted(g.AddCompute(devs[w], 0, pre[w]), cv.reqSlot+i)
			cv.multiDeps[w] = append(cv.multiDeps[w], id)
		}
	case PIMPool:
		multi = true
		cv.resetMulti(len(devs))
		for i := range cv.reqIDs {
			w := i % len(devs)
			owner := devs[w]
			pimDev := topo.NPUNodes() + cv.pimRR%topo.PIMPool // next pool device, round-robin
			cv.pimRR++
			xfer, comp := cv.reqSlot+2*i, cv.reqSlot+2*i+1
			out := cv.slotted(g.AddP2P(owner, pimDev, 0, pre[w]), xfer)
			in := cv.slotted(g.AddCompute(pimDev, 0, out), comp)
			back := cv.slotted(g.AddP2P(pimDev, owner, 0, in), xfer)
			cv.multiDeps[w] = append(cv.multiDeps[w], back)
		}
	}

	post := cv.scratch[:0] // pre is consumed above; reuse its backing
	for i, dev := range devs {
		var id int
		if multi {
			deps := cv.multiDeps[i]
			if len(deps) == 0 {
				// Workers without requests proceed straight from pre.
				deps = append(deps, pre[i])
			}
			id = g.AddCompute(dev, 0, deps...)
		} else {
			id = g.AddCompute(dev, 0, cv.entry[i])
		}
		post = append(post, cv.slotted(id, slotPost))
		cv.entry[i] = id
	}

	if topo.TP > 1 {
		id := cv.slotted(g.AddAllReduce(devs, 0, post...), slotAllReduce)
		for i := range devs {
			cv.entry[i] = id
		}
	}
}

// blocksRepeat reports whether consecutive blocks of a stage are
// identical. Only the PIM pool placement varies: each request's
// attention goes to the next pool device round-robin, which returns to
// the same assignment every block only when the request count is a
// multiple of the pool size.
func (cv *converter) blocksRepeat() bool {
	if cv.p.Placement != PIMPool || cv.p.Block.Monolithic > 0 {
		return true
	}
	return len(cv.reqIDs)%cv.topo.PIMPool == 0
}

// resetMulti clears the per-worker multi-dependency lists.
func (cv *converter) resetMulti(n int) {
	if cap(cv.multiDeps) < n {
		cv.multiDeps = make([][]int, n)
	}
	cv.multiDeps = cv.multiDeps[:n]
	for i := range cv.multiDeps {
		cv.multiDeps[i] = cv.multiDeps[i][:0]
	}
}

// distributeLayers spreads n layers over s pipeline stages as evenly as
// possible; leading stages take the remainder (a stage may hold zero
// layers when stages exceed layers, and then only forwards activations).
// The counts are appended to dst.
func distributeLayers(dst []int, n, s int) []int {
	base, extra := n/s, n%s
	for i := range s {
		c := base
		if i < extra {
			c++
		}
		dst = append(dst, c)
	}
	return dst
}

// appendSortedKeys appends m's keys to dst in ascending order.
func appendSortedKeys(dst []int, m map[int]simtime.Duration) []int {
	start := len(dst)
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst[start:])
	return dst
}
