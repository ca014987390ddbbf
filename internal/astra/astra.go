// Package astra executes execution graphs over the modelled system,
// substituting for ASTRA-sim's analytical backend.
//
// The simulator is discrete-event: a node becomes ready when its
// dependencies complete, then competes for its resources (device compute
// units, network ports, host DMA engines), each of which executes one node
// at a time. Among ready nodes the engine dispatches the one with the
// earliest feasible start, so independent work overlaps across devices and
// communication overlaps compute exactly as in ASTRA-sim's queue model.
//
// A graph may store a pipeline stage's identical decoder blocks once, as
// a repeat span (graph.Span). The executor runs such a span block by
// block and compares the state at each block boundary — every template
// resource's free time and the exit's end, taken relative to the
// boundary — with the previous boundary's. Once two match, the schedule
// has reached its steady state: every remaining block is the last one
// shifted by the same period, so the executor adds (remaining x period)
// instead of simulating them. The makespan and every node's timing
// equal those of the unrolled graph exactly, a template node's being
// its last repetition's (Executor.Execute gives the argument). Blocks
// run in full when the state never repeats or another node is ready at
// a boundary.
//
// Successive iterations mostly rewrite one graph's durations in place
// (graph.ConvertInto), so the Executor compiles a converted graph's build
// into a plan — successor lists, in-degrees, resource slots and the span
// layout in flat arrays — validating the graph then, and runs the graph
// over the plan while the build lasts.
//
// Compiling a converted build also decides whether its plan can be
// priced in one pass, with no event queue: when every resource's users
// are ordered by their dependencies, no node ever waits for a resource,
// so each starts when its last dependency ends. The pass visits nodes in
// ID order, runs each span's first two blocks and shifts the rest, and
// gives the event loop's result exactly (Executor.Execute gives the
// argument). Every other plan, and every hand-built graph, runs the
// event loop.
package astra

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/simtime"
)

// NodeTiming records when one graph node executed.
type NodeTiming struct {
	Start, End simtime.Time
}

// Result is the outcome of executing a graph.
type Result struct {
	Makespan simtime.Duration
	// Timings is indexed by node ID; a repeat span's template nodes hold
	// their last repetition's timing.
	Timings []NodeTiming

	// BlocksRun counts repeat-span repetitions executed node by node,
	// and BlocksShifted those advanced by the steady-state time shift.
	// Both are zero for an unrolled graph.
	BlocksRun, BlocksShifted int
}

type candidate struct {
	node  int32
	start simtime.Time
}

// candidateHeap is a hand-rolled typed min-heap: container/heap boxes
// every pushed element in an interface, which at one pop per node per
// iteration dominated the executor's allocation profile.
type candidateHeap []candidate

func (h candidateHeap) before(i, j int) bool {
	if h[i].start != h[j].start {
		return h[i].start < h[j].start
	}
	return h[i].node < h[j].node // deterministic tie-break
}

func (h *candidateHeap) push(c candidate) {
	*h = append(*h, c)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.before(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *candidateHeap) pop() candidate {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && s.before(l, best) {
			best = l
		}
		if r < n && s.before(r, best) {
			best = r
		}
		if best == i {
			break
		}
		s[i], s[best] = s[best], s[i]
		i = best
	}
	return top
}

// plan is a graph compiled for execution: everything Execute needs that
// does not depend on node durations, in flat arrays indexed by node ID.
type plan struct {
	graph *graph.Graph // the graph and build compiled (see Execute)
	build uint64

	nRes    int     // resource slots: class-major, device-minor
	indeg   []int32 // dependency count per node; its length is the node count
	succOff []int32 // successors of node i: succ[succOff[i]:succOff[i+1]]
	succ    []int32
	resOff  []int32 // resource slots of node i: res[resOff[i]:resOff[i+1]]
	res     []int32

	// Repeat spans (see Execute).
	spans    []graph.Span
	reindeg  []int32 // a template node's dependency count in repetitions after the first
	entryDep []int32 // 1 when a template node waits on the block's entry
	exitOf   []int32 // 1 + the span whose exit the node is, else 0
	spanOff  []int32 // span k's resources: spanRes[spanOff[k]:spanOff[k+1]]
	spanRes  []int32

	arena []int32 // backs every int32 array above, and scratch

	// scratch is the arena's tail: a mark per resource while compiling,
	// then, for a converted build, the one-pass check's scratch (see
	// plan.contentionFree).
	scratch []int32

	// onePass is set when the plan may be priced by Executor.pass
	// instead of the event loop; only a converted build is checked.
	onePass bool
}

// Executor runs graphs while reusing all scheduling state across calls.
// It holds the plan of the last converted graph's build
// (graph.Graph.Build) — successor lists, in-degrees, resource slots, the
// span layout — validating a graph when it compiles its plan. That graph
// runs over the held plan while its build lasts; any other graph or
// build replaces it, and a hand-built graph, which is no converted
// build, is validated and compiled on every call. Compiling a build also
// decides, once, whether its plan is priced in one pass or by the event
// loop (see Execute). One graph executes per simulated
// iteration, so this reuse keeps a warmed Execute call from allocating
// at all: the returned Result's Timings alias executor-owned storage
// valid until the next Execute call. An Executor is not safe for
// concurrent use; each simulator owns one.
type Executor struct {
	plan plan

	// loop prices every plan with the event loop, the reference the
	// one-pass pricing is tested against.
	loop bool

	dur     []simtime.Duration
	timings []NodeTiming
	resFree []simtime.Time
	indeg   []int32
	readyAt []simtime.Time
	heap    candidateHeap
	spans   []spanState
	snap    []simtime.Duration
}

// spanState tracks one repeat span while its repetitions execute.
type spanState struct {
	rep int // repetition currently executing

	// The previous block boundary, when no other node was ready there:
	// its exit's end and, per template resource, the free time relative
	// to it (Executor.snap over the span's plan.spanRes window).
	have  bool
	prevT simtime.Time
}

// UseEventLoop makes every later Execute price its plan with the event
// loop, never in one pass: the reference path differential tests
// compare the fast paths with.
func (e *Executor) UseEventLoop() { e.loop = true }

// Reset drops the held plan, keeping its storage, so the next Execute of
// any graph validates and compiles it afresh.
func (e *Executor) Reset() { e.plan.graph = nil }

// Execute runs the graph to completion and returns the schedule: when g
// is the held plan's graph and build it runs that plan over g's node
// durations, and otherwise it validates g and compiles its plan first. The returned
// Result's Timings alias executor-owned storage, valid until the next
// Execute call.
//
// # Repeat spans
//
// A span's template runs once per repetition on the template's own node
// state, which is sound because repetition r+1 waits only on r's exit
// and r's exit waits on every node of r: the repetitions never overlap.
// Each exit is a block boundary. At a boundary where no node outside the
// span is ready, the future of the span depends only on the state
// relative to the boundary time T: each template resource's free time
// minus T, clamped at zero (every later node is ready no earlier than
// T, so an earlier free time cannot delay it). Dispatch order among the
// template's nodes depends only on relative times and node IDs, which
// every repetition shares. So when two consecutive boundaries have equal
// relative states, the next repetition repeats the last one shifted by
// the period P between them, and so does every one after: the executor
// adds (remaining x P) to the template timings, resource free times and
// exit time. In integer picoseconds this is the unrolled graph's
// schedule exactly. If another node is ready at a boundary, or the
// state never repeats, every repetition runs.
//
// # One pass
//
// When a converted build compiles, the executor checks two properties
// of its plan. The plan is contention-free when, for each resource,
// every node using it is an ancestor of the next one in ID order; the
// users of a template resource then stay ordered across repetitions too,
// because every template node waits on the previous repetition's exit.
// Its spans are isolated when every node outside a span is an ancestor
// or a descendant of the span's exit.
//
// In a contention-free plan, when a node's last dependency ends, every
// other user of each of its resources is either an ancestor, which has
// ended, or a descendant, which has not started. The node therefore
// starts as soon as it is ready whatever the dispatch order: the event
// loop's list schedule is the as-soon-as-possible one, and one pass in
// ID order (IDs are topological) gives it, each node starting at the
// latest end among its dependencies. At a span boundary every node
// outside an isolated span has ended or waits on the exit, so no other
// node is ready, and every template resource is free by the exit's end:
// the boundary state is all zeros. The loop therefore runs two
// repetitions and shifts the other Count-2, and so does the pass: it
// runs repetition 0 from the span's external dependencies and
// repetition 1 from repetition 0's exit, then adds (Count-2) x P, P
// being the distance between the two exits, to the template's timings.
// The pass keeps no resource state, since nothing after it reads any.
func (e *Executor) Execute(g *graph.Graph) (Result, error) {
	p := &e.plan
	if build, converted := g.Build(); !converted || g != p.graph || build != p.build {
		if err := g.Validate(); err != nil {
			return Result{}, err
		}
		compile(p, g, converted)
		p.onePass = converted && p.priceable(g)
		p.graph, p.build = g, build
	}
	n := len(p.indeg)
	if len(g.Nodes) != n {
		return Result{}, fmt.Errorf("astra: graph of %d nodes no longer matches its %d-node build", len(g.Nodes), n)
	}
	dur := grow(&e.dur, n)
	for i, node := range g.Nodes {
		if node.Duration < 0 {
			return Result{}, fmt.Errorf("graph: %v has negative duration", node)
		}
		dur[i] = node.Duration
	}
	if p.onePass && !e.loop {
		return e.pass(p), nil
	}
	return e.run(p)
}

// compile builds the plan of the valid graph g, with room for the
// one-pass check when g is a converted build.
func compile(p *plan, g *graph.Graph, converted bool) {
	n := len(g.Nodes)

	maxDev, deps, nres := 0, 0, 0
	for _, node := range g.Nodes {
		deps += len(node.Deps)
		nres += len(node.Resources)
		for _, r := range node.Resources {
			maxDev = max(maxDev, r.Device)
		}
	}
	// Dense resource indexing: class-major, device-minor.
	stride := maxDev + 1
	p.nRes = 3 * stride

	// Every int32 array comes out of one zeroed block; the templates'
	// distinct resources number at most the resources their nodes hold.
	k, spanRes, scratch := len(g.Spans), 0, p.nRes
	for _, sp := range g.Spans {
		for _, node := range g.Nodes[sp.First : sp.Exit()+1] {
			spanRes += len(node.Resources)
		}
	}
	if converted {
		scratch += 2 * n
	}
	a := growZero(&p.arena, 4*n+2*(n+1)+deps+nres+k+1+spanRes+scratch)
	take := func(m int) []int32 {
		s := a[:m:m]
		a = a[m:]
		return s
	}
	p.indeg, p.reindeg, p.exitOf, p.entryDep = take(n), take(n), take(n), take(n)
	p.succOff, p.succ = take(n+1), take(deps)
	p.resOff, p.res = take(n+1), take(nres)
	p.spanOff, p.spanRes, p.scratch = take(k+1), a[:0:spanRes], a[spanRes:]

	for i, node := range g.Nodes {
		off := p.resOff[i]
		for j, r := range node.Resources {
			p.res[int(off)+j] = int32(int(r.Class)*stride + r.Device)
		}
		p.resOff[i+1] = off + int32(len(node.Resources))
	}

	// Successor lists in one flat array: count, prefix-sum, fill (indeg
	// counts the fill until it is set).
	indeg, succOff, succ := p.indeg, p.succOff, p.succ
	for _, node := range g.Nodes {
		for _, d := range node.Deps {
			succOff[d+1]++
		}
	}
	for i := range n {
		succOff[i+1] += succOff[i]
	}
	for _, node := range g.Nodes {
		for _, d := range node.Deps {
			succ[succOff[d]+indeg[d]] = int32(node.ID)
			indeg[d]++
		}
	}
	for _, node := range g.Nodes {
		indeg[node.ID] = int32(len(node.Deps))
	}

	// Repeat spans: per-node repetition metadata and each template's
	// distinct resources.
	p.spans = append(p.spans[:0], g.Spans...)
	mark := p.scratch[:p.nRes]
	for k, sp := range g.Spans {
		p.exitOf[sp.Exit()] = int32(k + 1)
		lo := len(p.spanRes)
		for id := sp.First; id <= sp.Exit(); id++ {
			for _, d := range g.Nodes[id].Deps {
				if d < sp.First {
					p.entryDep[id] = 1
				} else {
					p.reindeg[id]++
				}
			}
			// All entry dependencies become the previous exit.
			p.reindeg[id] += p.entryDep[id]
			for _, r := range p.res[p.resOff[id]:p.resOff[id+1]] {
				if mark[r] == 0 {
					mark[r] = 1
					p.spanRes = append(p.spanRes, r)
				}
			}
		}
		for _, r := range p.spanRes[lo:] {
			mark[r] = 0
		}
		p.spanOff[k+1] = int32(len(p.spanRes))
	}
}

// priceable reports whether the valid graph g, compiled into p, may be
// priced in one pass: whether the plan is contention-free and its spans
// are isolated (see Execute).
func (p *plan) priceable(g *graph.Graph) bool {
	return p.contentionFree(g) && p.spansIsolated(g)
}

// contentionFree reports whether, for each resource of the valid graph
// g compiled into p, every node using it is an ancestor of the next one
// in ID order.
func (p *plan) contentionFree(g *graph.Graph) bool {
	n := len(g.Nodes)
	buf := grow(&p.scratch, p.nRes+2*n)
	last, seen, stack := buf[:p.nRes], buf[p.nRes:p.nRes+n], buf[p.nRes+n:p.nRes+n]
	for i := range last {
		last[i] = -1
	}
	clear(seen)
	stamp := int32(0)
	for v := range int32(n) {
		for _, r := range p.res[p.resOff[v]:p.resOff[v+1]] {
			if u := last[r]; u >= 0 && u != v {
				stamp++
				if !reaches(g, seen, stack, stamp, u, v) {
					return false
				}
			}
			last[r] = v
		}
	}
	return true
}

// reaches reports whether node u is an ancestor of node v > u. It
// searches back from v through the nodes after u only, since IDs are
// topological, marking each node it visits with stamp in seen; the
// search stack holds each node once, so stack's capacity of one slot
// per node suffices. The searches for one resource's successive users
// cover disjoint ID ranges, so on a contention-free plan the check
// visits each node at most once per resource.
func reaches(g *graph.Graph, seen, stack []int32, stamp, u, v int32) bool {
	stack = append(stack[:0], v)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, d := range g.Nodes[x].Deps {
			if d := int32(d); d == u {
				return true
			} else if d > u && seen[d] != stamp {
				seen[d] = stamp
				stack = append(stack, d)
			}
		}
	}
	return false
}

// spansIsolated reports whether every node of the valid graph g outside
// each of its spans is an ancestor or a descendant of the span's exit:
// as IDs are topological, whether every node before the span is an
// ancestor of the exit and every node after it a descendant.
func (p *plan) spansIsolated(g *graph.Graph) bool {
	seen := growZero(&p.scratch, len(g.Nodes))
	for k, sp := range p.spans {
		// Stamp 2k+1 marks the exit's ancestors, 2k+2 its descendants.
		anc, desc := int32(2*k+1), int32(2*k+2)
		seen[sp.Exit()] = anc
		for id := sp.Exit(); id >= 0; id-- {
			if seen[id] != anc {
				if id < sp.First {
					return false
				}
				continue
			}
			for _, d := range g.Nodes[id].Deps {
				seen[d] = anc
			}
		}
		seen[sp.Exit()] = desc
		for id := sp.Exit() + 1; id < len(g.Nodes); id++ {
			for _, d := range g.Nodes[id].Deps {
				if seen[d] == desc {
					seen[id] = desc
					break
				}
			}
			if seen[id] != desc {
				return false
			}
		}
	}
	return true
}

// pass prices the one-pass plan p over the durations in e.dur (see
// Execute).
func (e *Executor) pass(p *plan) Result {
	n := len(p.indeg)
	res := Result{Timings: grow(&e.timings, n)}
	tm, dur, succ, succOff := res.Timings, e.dur[:n], p.succ, p.succOff
	readyAt := growZero(&e.readyAt, n) // max end time of dependencies
	second := false                    // running a span's repetition 1
	var end0 simtime.Time              // the end of its repetition 0
	for id := 0; id < n; id++ {
		start := readyAt[id]
		end := start.Add(dur[id])
		tm[id] = NodeTiming{Start: start, End: end}
		if k := p.exitOf[id]; k > 0 {
			sp := p.spans[k-1]
			res.BlocksRun++
			if sp.Count > 1 && !second {
				// Run repetition 1, which waits on this exit in place of
				// the span's external dependencies.
				second, end0 = true, end
				for t := sp.First; t <= id; t++ {
					readyAt[t] = 0
					if p.entryDep[t] != 0 {
						readyAt[t] = end
					}
				}
				id = sp.First - 1
				continue
			}
			if second {
				second = false
				if m := sp.Count - 2; m > 0 {
					shift := simtime.Duration(m) * end.Sub(end0)
					for t := sp.First; t <= id; t++ {
						tm[t].Start, tm[t].End = tm[t].Start.Add(shift), tm[t].End.Add(shift)
					}
					end = end.Add(shift)
					res.BlocksShifted += m
				}
			}
		}
		res.Makespan = max(res.Makespan, end.Sub(0))
		for _, s := range succ[succOff[id]:succOff[id+1]] {
			readyAt[s] = max(readyAt[s], end)
		}
	}
	return res
}

// run executes plan p over the durations in e.dur.
func (e *Executor) run(p *plan) (Result, error) {
	n := len(p.indeg)
	res := Result{Timings: growZero(&e.timings, n)}
	if n == 0 {
		return res, nil
	}
	dur, nodeRes, resOff, succ, succOff := e.dur[:n], p.res, p.resOff, p.succ, p.succOff
	resFree := growZero(&e.resFree, p.nRes)
	indeg := grow(&e.indeg, n)
	copy(indeg, p.indeg)
	readyAt := growZero(&e.readyAt, n) // max end time of dependencies
	growZero(&e.spans, len(p.spans))
	grow(&e.snap, len(p.spanRes))

	// A node enters the heap when its last dependency completes and
	// leaves it when dispatched, so it holds at most one entry at a time.
	h := &e.heap
	*h = (*h)[:0]
	for id := range int32(n) {
		if indeg[id] == 0 {
			h.push(candidate{id, feasible(readyAt[id], nodeRes[resOff[id]:resOff[id+1]], resFree)})
		}
	}

	scheduled := 0
	for len(*h) > 0 {
		c := h.pop()
		id := c.node
		held := nodeRes[resOff[id]:resOff[id+1]]
		// Resource availability may have advanced since the candidate was
		// pushed; if so, re-queue it with the refreshed start (lazy
		// re-evaluation keeps the heap consistent as times only grow).
		start := feasible(readyAt[id], held, resFree)
		if start > c.start {
			h.push(candidate{id, start})
			continue
		}
		end := start.Add(dur[id])
		res.Timings[id] = NodeTiming{Start: start, End: end}
		scheduled++
		for _, r := range held {
			resFree[r] = end
		}
		if d := end.Sub(0); d > res.Makespan {
			res.Makespan = d
		}
		if k := p.exitOf[id]; k > 0 {
			sp, st := p.spans[k-1], &e.spans[k-1]
			res.BlocksRun++
			if st.rep < sp.Count-1 {
				if shifted, ok := e.boundary(p, k-1, &res, end); ok {
					end = shifted
				} else {
					// Start the next repetition on the template's node
					// state; its entry is the exit that just ran.
					st.rep++
					scheduled -= sp.Len
					for t := int32(sp.First); t <= int32(sp.Exit()); t++ {
						indeg[t], readyAt[t] = p.reindeg[t], 0
						if p.entryDep[t] == 0 {
							continue
						}
						readyAt[t] = end
						if indeg[t]--; indeg[t] == 0 {
							h.push(candidate{t, feasible(end, nodeRes[resOff[t]:resOff[t+1]], resFree)})
						}
					}
					continue
				}
			}
		}
		for _, s := range succ[succOff[id]:succOff[id+1]] {
			readyAt[s] = max(readyAt[s], end)
			if indeg[s]--; indeg[s] == 0 {
				h.push(candidate{s, feasible(readyAt[s], nodeRes[resOff[s]:resOff[s+1]], resFree)})
			}
		}
	}
	if scheduled != n {
		return Result{}, fmt.Errorf("astra: deadlock, scheduled %d of %d nodes (cycle in graph?)", scheduled, n)
	}
	return res, nil
}

// feasible returns the earliest start of a node whose dependencies are
// done by ready: when all its resources are free too.
func feasible(ready simtime.Time, res []int32, resFree []simtime.Time) simtime.Time {
	for _, r := range res {
		ready = max(ready, resFree[r])
	}
	return ready
}

// boundary runs at the exit of a repetition of span k that is not the
// last. It records the boundary state, and when the state repeats the
// previous boundary's it time-shifts the span to its last repetition:
// it returns the last exit's end and true. See Execute for why the
// shift is exact.
func (e *Executor) boundary(p *plan, k int32, res *Result, end simtime.Time) (simtime.Time, bool) {
	sp, st := p.spans[k], &e.spans[k]
	if len(e.heap) > 0 {
		// Another node is ready: the next repetition is not isolated.
		st.have = false
		return end, false
	}
	lo, hi := p.spanOff[k], p.spanOff[k+1]
	resIdx, rel := p.spanRes[lo:hi], e.snap[lo:hi]
	same := st.have
	for i, r := range resIdx {
		d := max(e.resFree[r].Sub(end), 0)
		same = same && d == rel[i]
		rel[i] = d
	}
	if !same {
		st.have, st.prevT = true, end
		return end, false
	}

	// Repetitions rep+1 .. Count-1 each repeat repetition rep, shifted.
	m := simtime.Duration(sp.Count - 1 - st.rep)
	shift := m * end.Sub(st.prevT)
	for id := sp.First; id <= sp.Exit(); id++ {
		t := &res.Timings[id]
		t.Start, t.End = t.Start.Add(shift), t.End.Add(shift)
	}
	for _, r := range resIdx {
		e.resFree[r] = e.resFree[r].Add(shift)
	}
	res.BlocksShifted += int(m)
	st.rep = sp.Count - 1
	end = end.Add(shift)
	if d := end.Sub(0); d > res.Makespan {
		res.Makespan = d
	}
	return end, true
}

// grow returns (*buf)[:n], replacing the backing array with one of
// exactly n elements when it is too short; the contents are unspecified.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growZero returns (*buf)[:n] zeroed, growing the backing array as
// needed.
func growZero[T any](buf *[]T, n int) []T {
	s := grow(buf, n)
	clear(s)
	return s
}
