package cluster

import (
	"math/rand"
	"testing"

	"repro/internal/simtime"
)

// The binary heap below is the event queue the winner tree replaced,
// kept as the oracle for TestEventTreeMatchesHeap.

// eventHeap is a positioned min-heap over replica next-event times,
// tie-broken by replica index for determinism. Drained replicas sit at
// simtime.Forever.
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

// TestEventTreeMatchesHeap drives the winner tree and the binary heap
// through the same random update/push sequences — few distinct times,
// so ties on time are common, and many Forever entries — and requires
// the same (slot, time) minimum after every operation: the tree must
// order events exactly as the heap did, ties toward the lowest slot.
func TestEventTreeMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		var tree eventTree
		var heap eventHeap
		tree.init(n)
		heap.init(n)
		check := func(op string) {
			ti, tt := tree.min()
			hi, ht := heap.min()
			if ti != hi || tt != ht {
				t.Fatalf("trial %d, %s over %d slots: tree min (%d, %v), heap min (%d, %v)",
					trial, op, len(heap.t), ti, tt, hi, ht)
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
				tree.push(ev)
				heap.push(ev)
				check("push")
				continue
			}
			i := rng.Intn(len(heap.t))
			ev := draw()
			tree.update(i, ev)
			heap.update(i, ev)
			check("update")
		}
	}
}
