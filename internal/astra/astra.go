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
// Successive iterations mostly execute graphs of one shape
// (graph.Shape) with new durations, so the Executor compiles a graph's
// shape into a plan — successor lists, in-degrees, resource slots and
// the span layout in flat arrays — validating the graph at that point,
// and runs every following graph of that shape over the plan.
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
	shape graph.Shape // the graph shape compiled; zero for a hand-built graph

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

	arena []int32 // backs every int32 array above
}

// Executor runs graphs while reusing all scheduling state across calls.
// It holds the plan of the last graph's shape (graph.Shape) — successor
// lists, in-degrees, resource slots, the span layout — validating a
// graph when it compiles its plan. A graph of that shape runs over the
// held plan; any other graph replaces it, and a hand-built graph, which
// has no shape, is validated and compiled on every call. One graph
// executes per simulated iteration, so this reuse keeps a warmed Execute
// call from allocating at all: the returned Result's Timings alias
// executor-owned storage valid until the next Execute call. An Executor
// is not safe for concurrent use; each simulator owns one.
type Executor struct {
	plan plan
	mark []bool // compile scratch: resources seen in a span

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

// Reset drops the held plan, keeping its storage, so the next Execute of
// any graph validates and compiles it afresh.
func (e *Executor) Reset() { e.plan.shape = graph.Shape{} }

// Execute runs the graph to completion and returns the schedule: when g
// has the held plan's shape it runs that plan over g's node durations,
// and otherwise it validates g and compiles its plan first. The returned
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
func (e *Executor) Execute(g *graph.Graph) (Result, error) {
	p := &e.plan
	if shape, keyed := g.Shape(); !keyed || shape != p.shape {
		p.shape = graph.Shape{}
		if err := g.Validate(); err != nil {
			return Result{}, err
		}
		e.compile(p, g)
		p.shape = shape
	}
	n := len(p.indeg)
	if len(g.Nodes) != n {
		return Result{}, fmt.Errorf("astra: graph of %d nodes no longer matches its %d-node shape", len(g.Nodes), n)
	}
	dur := grow(&e.dur, n)
	for i, node := range g.Nodes {
		if node.Duration < 0 {
			return Result{}, fmt.Errorf("graph: node %d (%s) has negative duration", node.ID, node.Label)
		}
		dur[i] = node.Duration
	}
	return e.run(p)
}

// compile builds the plan of the valid graph g.
func (e *Executor) compile(p *plan, g *graph.Graph) {
	n := len(g.Nodes)

	maxDev, deps, nres := 0, 0, 0
	for _, node := range g.Nodes {
		deps += len(node.Deps)
		nres += len(node.Resources)
		for _, r := range node.Resources {
			maxDev = max(maxDev, r.Device)
		}
	}
	// Every int32 array comes out of one zeroed block; the templates'
	// distinct resources number at most the resources their nodes hold.
	k, spanRes := len(g.Spans), 0
	for _, sp := range g.Spans {
		for _, node := range g.Nodes[sp.First : sp.Exit()+1] {
			spanRes += len(node.Resources)
		}
	}
	a := growZero(&p.arena, 4*n+2*(n+1)+deps+nres+k+1+spanRes)
	take := func(m int) []int32 {
		s := a[:m:m]
		a = a[m:]
		return s
	}
	p.indeg, p.reindeg, p.exitOf, p.entryDep = take(n), take(n), take(n), take(n)
	p.succOff, p.succ = take(n+1), take(deps)
	p.resOff, p.res = take(n+1), take(nres)
	p.spanOff, p.spanRes = take(k+1), a[:0]

	// Dense resource indexing: class-major, device-minor.
	stride := maxDev + 1
	p.nRes = 3 * stride
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
	mark := growZero(&e.mark, p.nRes)
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
				if !mark[r] {
					mark[r] = true
					p.spanRes = append(p.spanRes, r)
				}
			}
		}
		for _, r := range p.spanRes[lo:] {
			mark[r] = false
		}
		p.spanOff[k+1] = int32(len(p.spanRes))
	}
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
