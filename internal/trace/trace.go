// Package trace holds per-engine operator traces and the operator
// scheduler that merges them (Algorithm 1, line 14).
//
// Each execution engine simulates the operators mapped to it and emits
// trace items carrying the operator, the engine that ran it, and the
// simulated latency. The operator scheduler reconstructs a single device
// timeline from multiple engines' items using a greedy list-scheduling
// heuristic that respects program order within a sub-batch while letting
// independent sub-batches overlap across heterogeneous engines — the
// NPU+PIM sub-batch interleaving of NeuPIMs.
package trace

import (
	"fmt"
	"slices"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/simtime"
)

// Item is one simulated operator occurrence in an engine trace.
type Item struct {
	Op       model.Op
	Engine   string      // engine instance name
	Kind     engine.Kind // accelerator class (the scheduling resource)
	Latency  simtime.Duration
	SubBatch int // sub-batch the op belongs to (0 if unpartitioned)
	Seq      int // program order within the sub-batch
}

// Scheduler merges engine traces into one timeline and reports its
// makespan. Items within a sub-batch execute in Seq order (true data
// dependencies); items from different sub-batches are independent and
// may overlap when they occupy different engine kinds. At each step the
// scheduler dispatches, among the sub-batches' next items, the one that
// can start earliest (ties go to the lower sub-batch), modelling the
// paper's greedy heuristic that "maximizes hardware utilization by
// allowing overlapping between operators and sub-batches".
//
// A Scheduler reuses its scratch state across calls, so a warmed
// Makespan call does not allocate. It is not safe for concurrent use.
type Scheduler struct {
	bounds    []int              // chain c holds items[bounds[c]:bounds[c+1]]
	head      []int              // next unscheduled item per chain
	chainFree []simtime.Duration // when each chain's previous item ends
	starts    []simtime.Duration // start offset per item
}

// Makespan schedules items and returns the merged timeline's length.
// Items must arrive grouped by SubBatch in ascending order and, within a
// group, in strictly ascending Seq order, as the execution engine phase
// emits them; anything else is an error rather than
// silently reordered. A negative latency or an unknown engine kind is an
// error too.
//
// Validity holds by construction once the input is checked: an item
// starts no earlier than its kind's and its chain's previous end, and
// with non-negative latencies those ends only grow, so no two items on
// one engine kind overlap and each sub-batch runs in program order.
func (s *Scheduler) Makespan(items []Item) (simtime.Duration, error) {
	s.bounds = s.bounds[:0]
	for i := range items {
		it := &items[i]
		switch {
		case it.Kind < 0 || it.Kind >= engine.NumKinds:
			return 0, fmt.Errorf("trace: item %d (%q) has unknown engine kind %v", i, it.Op.Name, it.Kind)
		case it.Latency < 0:
			return 0, fmt.Errorf("trace: item %d (%q) has negative latency %v", i, it.Op.Name, it.Latency)
		case i == 0 || it.SubBatch > items[i-1].SubBatch:
			s.bounds = append(s.bounds, i)
		case it.SubBatch < items[i-1].SubBatch:
			return 0, fmt.Errorf("trace: item %d: sub-batch %d follows sub-batch %d; items must be grouped in ascending sub-batch order",
				i, it.SubBatch, items[i-1].SubBatch)
		case it.Seq <= items[i-1].Seq:
			return 0, fmt.Errorf("trace: item %d: sub-batch %d order violation: seq %d follows seq %d",
				i, it.SubBatch, it.Seq, items[i-1].Seq)
		}
	}
	chains := len(s.bounds)
	s.bounds = append(s.bounds, len(items))
	s.head = append(s.head[:0], s.bounds[:chains]...)
	s.chainFree = slices.Grow(s.chainFree[:0], chains)[:chains]
	clear(s.chainFree)
	s.starts = slices.Grow(s.starts[:0], len(items))[:len(items)]

	var kindFree [engine.NumKinds]simtime.Duration // when each engine kind becomes idle
	var makespan simtime.Duration
	for range items {
		best := -1
		var bestStart simtime.Duration
		for c := range chains {
			i := s.head[c]
			if i == s.bounds[c+1] {
				continue
			}
			start := max(s.chainFree[c], kindFree[items[i].Kind])
			if best < 0 || start < bestStart {
				best, bestStart = c, start
			}
		}
		i := s.head[best]
		s.head[best]++
		end := bestStart + items[i].Latency
		s.starts[i] = bestStart
		s.chainFree[best] = end
		kindFree[items[i].Kind] = end
		makespan = max(makespan, end)
	}
	return makespan, nil
}

// Start returns when items[i] of the last Makespan call started, as an
// offset from the schedule origin.
func (s *Scheduler) Start(i int) simtime.Duration { return s.starts[i] }

// Segments decomposes one transformer block's serial trace (single
// sub-batch, homogeneous engine) into the three regions the graph
// converter lays out per worker: the pre-attention region (LayerNorm1 +
// QKV), the per-request attention core, and the post-attention region
// (Proj through Residual2).
type Segments struct {
	Pre  simtime.Duration         // LayerNorm1 + QKVGen
	Attn map[int]simtime.Duration // per-request attention core (by ReqID)
	Post simtime.Duration         // Proj, Residual, LayerNorm2, FFN1, FFN2, Residual
}

// SplitSegments computes Segments from a block's trace items.
func SplitSegments(items []Item) Segments {
	return SplitSegmentsInto(items, nil)
}

// SplitSegmentsInto computes Segments reusing attn (cleared first) as
// the per-request attention map when non-nil — the per-iteration path
// that avoids re-allocating the map every batch.
func SplitSegmentsInto(items []Item, attn map[int]simtime.Duration) Segments {
	if attn == nil {
		attn = map[int]simtime.Duration{}
	} else {
		clear(attn)
	}
	seg := Segments{Attn: attn}
	seenAttention := false
	for _, it := range items {
		switch {
		case it.Op.Kind.IsAttention():
			seenAttention = true
			seg.Attn[it.Op.ReqID] += it.Latency
		case !seenAttention:
			seg.Pre += it.Latency
		default:
			seg.Post += it.Latency
		}
	}
	return seg
}

// AttnTotal returns the summed attention time across requests.
func (s Segments) AttnTotal() simtime.Duration {
	var t simtime.Duration
	for _, d := range s.Attn {
		t += d
	}
	return t
}
