package engine

import (
	"math"

	"repro/internal/model"
	"repro/internal/simtime"
)

// Memo is a pricing memo in front of one Stack for the single goroutine
// that owns it, such as a performance-model backend stepping one
// simulator. It remembers the latencies the Stack returned, so that the
// steady state of an iteration loop prices its operators with no lock,
// no hash map and no copy of the operator:
//
//   - Decode attention (Score, Softmax and Attend with one new token)
//     lives in dense tables, one per (kind, phase), indexed by context
//     length. Each table is sized once, when first used, to the model's
//     maximum sequence length, and pins the head count and the
//     non-context dimension of the first operator it sees; an operator
//     that does not match them goes to the Stack.
//   - The single-head non-attention operators (weight GEMMs, LayerNorm,
//     Residual, Embed, Head) live in a small direct-mapped table whose
//     slots hold the full shape, so a collision costs a miss, never a
//     wrong latency.
//
// Prefill attention, any other operator and every miss go to
// Stack.RunLatency, and a miss then fills the memo. A memo hit stands
// for the Stack double hit the same call would have been: Flush folds
// the hits counted since the last Flush into the Stack's counters, so
// Stats matches a bare Stack's after every Flush. With reuse off on
// the Stack the memo keeps nothing and every call reaches the engine.
//
// A Memo is not safe for concurrent use; the Stack behind it still is.
type Memo struct {
	s          *Stack
	maxContext int

	attn [3][2]attnTable // decode attention by (kind - OpScore, phase)
	ops  [memoSlots]memoSlot

	hits int64 // since the last Flush
}

// attnTable holds one (kind, phase) pair's decode-attention latencies
// by context length, each as 1 + its picoseconds in 32 bits; 0 is
// unpriced. A latency that does not fit (4.3 ms or more) is not kept.
type attnTable struct {
	heads, dim int // pinned: head count and the non-context dimension
	lat        []uint32
}

// memoSlot is one direct-mapped slot: the full shape of a single-head,
// context-free operator (M > 0; zero marks an empty slot) and its
// latency.
type memoSlot struct {
	kind    model.OpKind
	phase   model.Phase
	m, n, k int
	lat     simtime.Duration
}

const (
	memoBits  = 8
	memoSlots = 1 << memoBits

	// maxMemoContext caps an attention table's length; longer contexts
	// go to the Stack.
	maxMemoContext = 1 << 16
)

// NewMemo returns an empty memo in front of s. maxContext bounds the
// context lengths the decode-attention tables cover (the model's
// maximum sequence length).
func NewMemo(s *Stack, maxContext int) *Memo {
	return &Memo{s: s, maxContext: min(max(maxContext, 0), maxMemoContext)}
}

// RunLatency is Stack.RunLatency through the memo. op is only read.
func (m *Memo) RunLatency(op *model.Op) (simtime.Duration, error) {
	if !m.s.reuse {
		return m.s.RunLatency(op)
	}
	if op.Kind.IsAttention() {
		return m.attention(op)
	}
	if op.M <= 0 || op.Heads != 1 || op.Context != 0 {
		return m.s.RunLatency(op)
	}
	e := &m.ops[slotOf(op)]
	if e.m == op.M && e.n == op.N && e.k == op.K && e.kind == op.Kind && e.phase == op.Phase {
		m.hits++
		return e.lat, nil
	}
	lat, err := m.s.RunLatency(op)
	if err == nil {
		*e = memoSlot{kind: op.Kind, phase: op.Phase, m: op.M, n: op.N, k: op.K, lat: lat}
	}
	return lat, err
}

// attention prices an attention-core operator: decode attention through
// its (kind, phase) table, anything else on the Stack.
func (m *Memo) attention(op *model.Op) (simtime.Duration, error) {
	ctx, dim := op.N, op.K // Score and Softmax run over N = context
	if op.Kind == model.OpAttend {
		ctx, dim = op.K, op.N
	}
	if op.M != 1 || ctx != op.Context || op.Phase < 0 || op.Phase > model.Generation {
		return m.s.RunLatency(op)
	}
	t := &m.attn[op.Kind-model.OpScore][op.Phase]
	if t.lat == nil {
		t.heads, t.dim = op.Heads, dim
		t.lat = make([]uint32, m.maxContext+1)
	}
	if op.Heads != t.heads || dim != t.dim || uint(ctx) >= uint(len(t.lat)) {
		return m.s.RunLatency(op)
	}
	if v := t.lat[ctx]; v != 0 {
		m.hits++
		return simtime.Duration(v - 1), nil
	}
	lat, err := m.s.RunLatency(op)
	if err == nil && lat >= 0 && lat < math.MaxUint32 {
		t.lat[ctx] = uint32(lat) + 1
	}
	return lat, err
}

// slotOf maps a non-attention operator's shape to its direct-mapped
// slot.
func slotOf(op *model.Op) int {
	h := uint64(op.Kind)<<1 | uint64(op.Phase)&1
	for _, v := range [...]int{op.M, op.N, op.K} {
		h = (h + uint64(v)) * 0x9E3779B97F4A7C15
	}
	return int(h >> (64 - memoBits))
}

// AddHits counts n operators as memo hits without pricing them. It is
// for a caller that skips operators it knows would hit: ones it priced
// through this memo before, with reuse on, and whose shapes have not
// changed. They fold into the Stack's counters at the next Flush,
// exactly as pricing them would have.
func (m *Memo) AddHits(n int64) { m.hits += n }

// Flush folds the hits counted since the last Flush into the Stack's
// double-hit counters, with one locked call.
func (m *Memo) Flush() {
	if m.hits == 0 {
		return
	}
	m.s.foldHits(m.hits)
	m.hits = 0
}
