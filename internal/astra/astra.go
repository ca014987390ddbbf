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
	node  int
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

// Executor runs graphs while reusing all scheduling scratch state
// (successor arrays, resource timelines, the ready heap, the timings
// buffer) across calls. One graph executes per simulated iteration, so
// this reuse keeps a warmed Execute call from allocating at all: the
// returned Result's Timings alias executor-owned storage valid until
// the next Execute call. An Executor is not safe for concurrent use;
// each simulator owns one.
type Executor struct {
	resFree []simtime.Time

	indeg   []int
	succOff []int
	succBuf []int
	fill    []int
	readyAt []simtime.Time
	done    []bool
	heap    candidateHeap
	timings []NodeTiming

	// Repeat-span state (see Execute): per-node repetition metadata,
	// per-span progress, each template's resources, and the boundary
	// snapshots the steady-state test compares.
	reindeg  []int   // a template node's dependency count in repetitions after the first
	entryDep []bool  // template node waits on the block's entry
	exitOf   []int32 // 1 + the span whose exit the node is, else 0
	spans    []spanState
	spanRes  []int
	snap     []simtime.Duration
	mark     []bool
}

// spanState tracks one repeat span while its repetitions execute.
type spanState struct {
	rep    int // repetition currently executing
	lo, hi int // the template's resources: Executor.spanRes[lo:hi]

	// The previous block boundary, when no other node was ready there:
	// its exit's end and, per template resource, the free time relative
	// to it (Executor.snap[lo:hi]).
	have  bool
	prevT simtime.Time
}

// Execute runs the graph to completion and returns the schedule. The
// bookkeeping is flat: successor lists live in one offset-indexed array
// and per-resource state in a dense slice keyed by (class, device). The
// returned Result's Timings alias executor-owned storage, valid until
// the next Execute call.
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
	if err := g.Validate(); err != nil {
		return Result{}, err
	}
	n := len(g.Nodes)
	if cap(e.timings) < n {
		e.timings = make([]NodeTiming, n)
	}
	res := Result{Timings: e.timings[:n]}
	clear(res.Timings)
	if n == 0 {
		return res, nil
	}

	// Dense resource indexing: class-major, device-minor.
	maxDev := 0
	for _, node := range g.Nodes {
		for _, r := range node.Resources {
			if r.Device > maxDev {
				maxDev = r.Device
			}
		}
	}
	stride := maxDev + 1
	ridx := func(r graph.Resource) int { return int(r.Class)*stride + r.Device }
	nRes := 3 * stride
	resFree := growZero(&e.resFree, nRes)

	// Successor lists in one flat array: count, prefix-sum, fill.
	indeg := growZero(&e.indeg, n)
	succOff := growZero(&e.succOff, n+1)
	fill := growZero(&e.fill, n)
	for _, node := range g.Nodes {
		indeg[node.ID] = len(node.Deps)
		for _, d := range node.Deps {
			succOff[d+1]++
		}
	}
	for i := 0; i < n; i++ {
		succOff[i+1] += succOff[i]
	}
	if cap(e.succBuf) < succOff[n] {
		e.succBuf = make([]int, succOff[n])
	}
	succBuf := e.succBuf[:succOff[n]]
	for _, node := range g.Nodes {
		for _, d := range node.Deps {
			succBuf[succOff[d]+fill[d]] = node.ID
			fill[d]++
		}
	}

	readyAt := growZero(&e.readyAt, n) // max end time of dependencies
	exitOf := e.prepareSpans(g, ridx, nRes)

	feasible := func(id int) simtime.Time {
		t := readyAt[id]
		for _, r := range g.Nodes[id].Resources {
			if f := resFree[ridx(r)]; f > t {
				t = f
			}
		}
		return t
	}

	h := &e.heap
	*h = (*h)[:0]
	for id := 0; id < n; id++ {
		if indeg[id] == 0 {
			h.push(candidate{node: id, start: feasible(id)})
		}
	}

	scheduled := 0
	done := growZero(&e.done, n)
	for len(*h) > 0 {
		c := h.pop()
		if done[c.node] {
			continue
		}
		// Resource availability may have advanced since the candidate was
		// pushed; if so, re-queue it with the refreshed start (lazy
		// re-evaluation keeps the heap consistent as times only grow).
		now := feasible(c.node)
		if now > c.start {
			h.push(candidate{node: c.node, start: now})
			continue
		}
		node := g.Nodes[c.node]
		start := now
		end := start.Add(node.Duration)
		res.Timings[c.node] = NodeTiming{Start: start, End: end}
		done[c.node] = true
		scheduled++
		for _, r := range node.Resources {
			resFree[ridx(r)] = end
		}
		if d := end.Sub(0); d > res.Makespan {
			res.Makespan = d
		}
		if k := exitOf[c.node]; k > 0 {
			sp, st := g.Spans[k-1], &e.spans[k-1]
			res.BlocksRun++
			if st.rep < sp.Count-1 {
				if shifted, ok := e.boundary(sp, st, &res, end); ok {
					end = shifted
				} else {
					// Start the next repetition on the template's node
					// state; its entry is the exit that just ran.
					st.rep++
					scheduled -= sp.Len
					for id := sp.First; id <= sp.Exit(); id++ {
						indeg[id], readyAt[id], done[id] = e.reindeg[id], 0, false
					}
					for id := sp.First; id <= sp.Exit(); id++ {
						if !e.entryDep[id] {
							continue
						}
						readyAt[id] = end
						if indeg[id]--; indeg[id] == 0 {
							h.push(candidate{node: id, start: feasible(id)})
						}
					}
					continue
				}
			}
		}
		for _, s := range succBuf[succOff[c.node]:succOff[c.node+1]] {
			if readyAt[s] < end {
				readyAt[s] = end
			}
			indeg[s]--
			if indeg[s] == 0 {
				h.push(candidate{node: s, start: feasible(s)})
			}
		}
	}
	if scheduled != n {
		return Result{}, fmt.Errorf("astra: deadlock, scheduled %d of %d nodes (cycle in graph?)", scheduled, n)
	}
	return res, nil
}

// prepareSpans sets up the repeat-span metadata of g and returns the
// per-node exit marks (all zero for an unrolled graph).
func (e *Executor) prepareSpans(g *graph.Graph, ridx func(graph.Resource) int, nRes int) []int32 {
	n := len(g.Nodes)
	exitOf := growZero(&e.exitOf, n)
	if len(g.Spans) == 0 {
		return exitOf
	}
	reindeg := growZero(&e.reindeg, n)
	entryDep := growZero(&e.entryDep, n)
	mark := growZero(&e.mark, nRes)
	spans := growZero(&e.spans, len(g.Spans))
	e.spanRes = e.spanRes[:0]
	for k, sp := range g.Spans {
		exitOf[sp.Exit()] = int32(k + 1)
		st := &spans[k]
		st.lo = len(e.spanRes)
		for id := sp.First; id <= sp.Exit(); id++ {
			node := g.Nodes[id]
			for _, d := range node.Deps {
				if d < sp.First {
					entryDep[id] = true
				} else {
					reindeg[id]++
				}
			}
			if entryDep[id] {
				// All entry dependencies become the previous exit.
				reindeg[id]++
			}
			for _, r := range node.Resources {
				if i := ridx(r); !mark[i] {
					mark[i] = true
					e.spanRes = append(e.spanRes, i)
				}
			}
		}
		st.hi = len(e.spanRes)
		for _, i := range e.spanRes[st.lo:st.hi] {
			mark[i] = false
		}
	}
	growZero(&e.snap, len(e.spanRes))
	return exitOf
}

// boundary runs at the exit of a span repetition that is not the last.
// It records the boundary state, and when the state repeats the previous
// boundary's it time-shifts the span to its last repetition: it returns
// the last exit's end and true. See Execute for why the shift is exact.
func (e *Executor) boundary(sp graph.Span, st *spanState, res *Result, end simtime.Time) (simtime.Time, bool) {
	if len(e.heap) > 0 {
		// Another node is ready: the next repetition is not isolated.
		st.have = false
		return end, false
	}
	resIdx, rel := e.spanRes[st.lo:st.hi], e.snap[st.lo:st.hi]
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

// growZero returns (*buf)[:n] zeroed, growing the backing array as
// needed.
func growZero[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
		return *buf
	}
	s := (*buf)[:n]
	clear(s)
	return s
}
