package cluster

import (
	"math/rand"
	"testing"

	"repro/internal/simtime"
)

// eventHeap is a positioned binary min-heap over replica next-event
// times, tie-broken by replica index: the event queue's reference
// ordering, kept as the oracle for TestEventTreeMatchesHeap. Drained
// replicas sit at simtime.Forever.
type eventHeap struct {
	t    []simtime.Time
	heap []int // replica indices, heap-ordered
	pos  []int // replica index -> position in heap
}

func (h *eventHeap) init(n int) {
	h.t = make([]simtime.Time, n)
	h.heap = make([]int, n)
	h.pos = make([]int, n)
	for i := 0; i < n; i++ {
		h.t[i] = simtime.Forever
		h.heap[i] = i
		h.pos[i] = i
	}
}

// push appends a new replica slot with the given event time.
func (h *eventHeap) push(t simtime.Time) {
	i := len(h.t)
	h.t = append(h.t, t)
	h.pos = append(h.pos, len(h.heap))
	h.heap = append(h.heap, i)
	h.up(h.pos[i])
}

func (h *eventHeap) before(a, b int) bool {
	if h.t[a] != h.t[b] {
		return h.t[a] < h.t[b]
	}
	return a < b
}

// min returns the replica with the earliest next event.
func (h *eventHeap) min() (idx int, t simtime.Time) {
	i := h.heap[0]
	return i, h.t[i]
}

// update sets replica i's event time and restores heap order.
func (h *eventHeap) update(i int, t simtime.Time) {
	h.t[i] = t
	p := h.pos[i]
	h.down(p)
	h.up(p)
}

func (h *eventHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.before(h.heap[i], h.heap[p]) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *eventHeap) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.before(h.heap[l], h.heap[best]) {
			best = l
		}
		if r < n && h.before(h.heap[r], h.heap[best]) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

func (h *eventHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = i
	h.pos[h.heap[j]] = j
}

// TestEventTreeMatchesHeap drives the min tree as the event queue and
// the binary heap through the same random update/push sequences — few
// distinct times, so ties on time are common, and many Forever entries
// — and requires the same (slot, time) minimum after every operation:
// the tree must order events exactly as the heap does, ties toward the
// lowest slot. A push grows the tree by one slot and sets its time, as
// the cluster does when a replica is added. The updates include the
// root winner's (a stepped replica), unchanged times, and idle
// (Forever) slots becoming busy, and after each one every node must
// equal a tree built fresh from the same times, so an early exit that
// left a stale match anywhere fails.
func TestEventTreeMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		var tree, fresh minTree
		var heap eventHeap
		tree.build(n, func(int) int64 { return int64(simtime.Forever) })
		heap.init(n)
		check := func(op string) {
			ti, tt := tree.min()
			hi, ht := heap.min()
			if ti != hi || simtime.Time(tt) != ht {
				t.Fatalf("trial %d, %s over %d slots: tree min (%d, %v), heap min (%d, %v)",
					trial, op, len(heap.t), ti, simtime.Time(tt), hi, ht)
			}
		}
		check("init")
		distinct := 1 + rng.Intn(6)
		draw := func() simtime.Time {
			if rng.Intn(3) == 0 {
				return simtime.Forever
			}
			return simtime.Time(rng.Intn(distinct))
		}
		for op := 0; op < 400; op++ {
			if rng.Intn(20) == 0 {
				ev := draw()
				tree.grow(len(heap.t) + 1)
				tree.set(len(heap.t), int64(ev))
				heap.push(ev)
				check("push")
				continue
			}
			kind, i, ev := "update", rng.Intn(len(heap.t)), draw()
			switch rng.Intn(4) {
			case 0:
				kind, ev = "unchanged update", heap.t[i]
			case 1:
				kind = "root update"
				i, _ = tree.min()
			case 2:
				for k := range heap.t {
					if heap.t[(i+k)%len(heap.t)] == simtime.Forever {
						kind, i = "idle to busy", (i+k)%len(heap.t)
						ev = simtime.Time(rng.Intn(distinct))
						break
					}
				}
			}
			tree.set(i, int64(ev))
			heap.update(i, ev)
			check(kind)
			fresh.build(len(heap.t), func(k int) int64 { return int64(heap.t[k]) })
			if len(tree.node) != len(fresh.node) {
				t.Fatalf("trial %d, %s: %d nodes, a fresh build has %d", trial, kind, len(tree.node), len(fresh.node))
			}
			for p := 1; p < len(fresh.node); p++ {
				if tree.node[p] != fresh.node[p] {
					t.Fatalf("trial %d, %s of slot %d: node %d is %+v, a fresh tree has %+v", trial, kind, i, p, tree.node[p], fresh.node[p])
				}
			}
		}
	}
}
