// Package roofline is the analytical performance-model backend: it
// prices each iteration operator-by-operator against a device roofline
// (Fig. 2b) — attainable rate is the lesser of peak compute and
// bandwidth-bound throughput — plus the analytic collective cost models
// of internal/network for tensor-parallel all-reduces, pipeline
// transfers, the LM-head gather, and KV paging traffic.
//
// Compared with the astra backend it skips operator compilation, graph
// conversion, and discrete-event execution entirely; iteration costs
// reduce to a handful of cached closed-form evaluations (a steady decode
// step reads only dense tables indexed by sequence count and context),
// making million-point design-space sweeps tractable. The price is
// fidelity: no operator-scheduler overlap, no link contention, and no
// PIM operator mapping (construction rejects PIM configurations).
//
// Determinism: costs are integer picosecond durations derived from pure
// float arithmetic on the configuration; identical configurations and
// batches produce bit-identical latencies on every run and host.
package roofline

import (
	"fmt"
	"slices"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/sched"
	"repro/internal/simtime"
)

// Stats instruments the backend's pricing caches.
type Stats struct {
	Iterations int64
	BaseHits   int64 // batch-level cost cache hits
	BaseMisses int64
	AttnHits   int64 // per-sequence attention cost cache hits
	AttnMisses int64
}

// cost is a latency decomposed into roofline sides. Every operator's
// latency lands on exactly one side, so the latency is their sum.
type cost struct {
	compute simtime.Duration // share from compute-bound operators
	memory  simtime.Duration // share from bandwidth-bound operators
}

func (c cost) total() simtime.Duration { return c.compute + c.memory }

func (c *cost) add(o cost) {
	c.compute += o.compute
	c.memory += o.memory
}

func (c cost) times(n int) cost {
	d := simtime.Duration(n)
	return cost{compute: c.compute * d, memory: c.memory * d}
}

// baseEntry is the batch-shape-dependent (attention-independent) share
// of an iteration's cost. Every non-attention operator shape and every
// collective depends only on the batch's total new tokens, and the LM
// head and its gather on the sequence count.
type baseEntry struct {
	ops cost
	net simtime.Duration // networkCost for the same shape
}

// packKey packs two non-negative counts below 1<<32 into one cache key.
// Base entries are keyed (totalNew, nseqs); attention entries
// (newTokens, post-iteration context), the only inputs of the
// Score/Softmax/Attend triple.
func packKey(hi, lo int) uint64 { return uint64(hi)<<32 | uint64(lo) }

// denseChunk is the number of entries per dense-table chunk.
const (
	denseShift = 6
	denseChunk = 1 << denseShift
)

// denseTable holds cache entries indexed by a small non-negative count,
// in fixed chunks allocated the first time one of their entries is
// stored: a replica pays for the count ranges its traffic reaches, not
// for the whole range up to the model's context limit. Unstored entries
// of an allocated chunk hold the sentinel they were filled with.
type denseTable[T any] struct{ chunks []*[denseChunk]T }

// at returns entry i, or nil when its chunk was never allocated.
func (t *denseTable[T]) at(i int) *T {
	if c := i >> denseShift; c < len(t.chunks) && t.chunks[c] != nil {
		return &t.chunks[c][i&(denseChunk-1)]
	}
	return nil
}

// put stores v as entry i, allocating its chunk filled with blank.
func (t *denseTable[T]) put(i int, v, blank T) {
	c := i >> denseShift
	if c >= len(t.chunks) {
		t.chunks = slices.Grow(t.chunks, c+1-len(t.chunks))[:c+1]
	}
	if t.chunks[c] == nil {
		ch := new([denseChunk]T)
		for k := range ch {
			ch[k] = blank
		}
		t.chunks[c] = ch
	}
	t.chunks[c][i&(denseChunk-1)] = v
}

// unpriced marks a dense-table entry no iteration has priced yet: real
// costs are never negative.
var unpriced = cost{compute: -1}

func (c cost) priced() bool { return c.compute >= 0 }

// Backend prices iterations analytically for one simulator instance.
type Backend struct {
	cfg perfmodel.Config
	hw  perfmodel.Hardware

	localHeads int // padded per-worker head share
	headDim    int

	itBuf model.IterationOps
	base  map[uint64]baseEntry // packKey(totalNew, nseqs), batches with a prompt slice
	attn  map[uint64]cost      // packKey(newTokens, context), newTokens > 1

	// A steady decode step probes no map: pure-decode batches
	// (totalNew == nseqs) read their base entry by sequence count, and
	// decode attention (newTokens == 1) its cost by context.
	decodeBase denseTable[baseEntry]
	decodeAttn denseTable[cost]

	stats Stats
}

// New validates the configuration and builds a roofline backend on the
// given hardware.
func New(cfg perfmodel.Config, hw perfmodel.Hardware) (*Backend, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := hw.Validate(); err != nil {
		return nil, err
	}
	if cfg.PIMMode != perfmodel.PIMNone {
		return nil, fmt.Errorf("roofline: PIM operator mapping is not modelled analytically (use the astra backend)")
	}
	if uint64(cfg.Model.MaxSeqLen) >= 1<<32 {
		return nil, fmt.Errorf("roofline: max sequence length %d exceeds the cache key range", cfg.Model.MaxSeqLen)
	}
	tp := cfg.Topo.TP
	return &Backend{
		cfg:        cfg,
		hw:         hw,
		localHeads: max((cfg.Model.Heads+tp-1)/tp, 1),
		headDim:    cfg.Model.HeadDim(),
		base:       map[uint64]baseEntry{},
		attn:       map[uint64]cost{},
	}, nil
}

// Name identifies the backend and the hardware it prices against.
func (b *Backend) Name() string { return "roofline/" + b.hw.Name }

// DeviceMemoryBytes reports the hardware's memory capacity.
func (b *Backend) DeviceMemoryBytes() int64 { return b.hw.MemoryBytes }

// Host returns the backend's component times — all zero: analytical
// pricing is a table read per sequence per iteration, too little
// to split from the step around it, so its cost lands in the caller's
// scheduler bucket (core meters whole steps on a sample and subtracts
// only what the backend reports).
func (b *Backend) Host() metrics.ComponentTimes { return metrics.ComponentTimes{} }

// Stats returns a snapshot of the cache instrumentation.
func (b *Backend) Stats() Stats { return b.stats }

// ResetStats zeroes the cache instrumentation (the pricing caches
// persist).
func (b *Backend) ResetStats() { b.stats = Stats{} }

// IterationLatency prices one scheduled batch analytically.
func (b *Backend) IterationLatency(batch *sched.Batch) (simtime.Duration, perfmodel.Breakdown, error) {
	b.stats.Iterations++

	m := &b.cfg.Model // a pointer: the model config is too large to copy per step
	totalNew := 0
	for i, s := range batch.Seqs {
		if s.NewTokens <= 0 {
			return 0, perfmodel.Breakdown{}, fmt.Errorf("roofline: batch[%d] (req %d) has NewTokens=%d", i, s.ReqID, s.NewTokens)
		}
		if s.Context < 0 {
			return 0, perfmodel.Breakdown{}, fmt.Errorf("roofline: batch[%d] (req %d) has negative context", i, s.ReqID)
		}
		if s.TotalLen() > m.MaxSeqLen {
			return 0, perfmodel.Breakdown{}, fmt.Errorf("roofline: batch[%d] (req %d) length %d exceeds max %d",
				i, s.ReqID, s.TotalLen(), m.MaxSeqLen)
		}
		totalNew += s.NewTokens
	}
	if len(batch.Seqs) == 0 {
		return 0, perfmodel.Breakdown{}, fmt.Errorf("roofline: empty batch")
	}
	// Each half of a packed cache key holds 32 bits. Sequence lengths
	// are already bounded by MaxSeqLen (New keeps it below 1<<32).
	if uint64(totalNew) >= 1<<32 || uint64(len(batch.Seqs)) >= 1<<32 {
		return 0, perfmodel.Breakdown{}, fmt.Errorf("roofline: batch of %d sequences and %d new tokens exceeds the cache key range",
			len(batch.Seqs), totalNew)
	}

	base, err := b.baseCost(batch, totalNew)
	if err != nil {
		return 0, perfmodel.Breakdown{}, err
	}
	total := base.ops
	for _, s := range batch.Seqs {
		total.add(b.attnCost(s.NewTokens, s.TotalLen()).times(m.Layers))
	}

	net := base.net + b.pagingCost(batch.PageOps)

	return total.total() + net, perfmodel.Breakdown{
		Compute: total.compute,
		Memory:  total.memory,
		Network: net,
	}, nil
}

// baseCost returns the attention-independent operator cost of the batch
// (embed + Layers x non-attention block ops + LM head) and its
// collective cost, cached by batch shape.
func (b *Backend) baseCost(batch *sched.Batch, totalNew int) (baseEntry, error) {
	nseqs := len(batch.Seqs)
	decode := totalNew == nseqs // every sequence adds exactly one token
	if decode {
		if e := b.decodeBase.at(nseqs); e != nil && e.ops.priced() {
			b.stats.BaseHits++
			return *e, nil
		}
	} else if e, ok := b.base[packKey(totalNew, nseqs)]; ok {
		b.stats.BaseHits++
		return e, nil
	}
	b.stats.BaseMisses++

	// Build the iteration workload once to reuse the builder's exact
	// operator shapes (padded TP sharding, MoE widening, gated FFNs).
	it := &b.itBuf
	if err := model.BuildIterationInto(it, b.cfg.Model, batch.Seqs, b.cfg.Topo.TP); err != nil {
		return baseEntry{}, err
	}
	var perLayer cost
	for _, op := range it.Block {
		if op.Kind.IsAttention() {
			continue // priced per sequence, cached separately
		}
		perLayer.add(b.opCost(op))
	}
	c := perLayer.times(it.Layers)
	c.add(b.opCost(it.Embed))
	c.add(b.opCost(it.Head))
	e := baseEntry{ops: c, net: b.networkCost(nseqs, totalNew)}
	if decode {
		b.decodeBase.put(nseqs, e, baseEntry{ops: unpriced})
	} else {
		b.base[packKey(totalNew, nseqs)] = e
	}
	return e, nil
}

// attnCost returns the cached cost of one request's attention triple
// (Score, Softmax, Attend) in one transformer block, using the same
// shapes model.BuildIteration emits.
func (b *Backend) attnCost(newTokens, ctx int) cost {
	if newTokens == 1 {
		if c := b.decodeAttn.at(ctx); c != nil && c.priced() {
			b.stats.AttnHits++
			return *c
		}
	} else if c, ok := b.attn[packKey(newTokens, ctx)]; ok {
		b.stats.AttnHits++
		return c
	}
	b.stats.AttnMisses++
	var c cost
	c.add(b.opCost(model.Op{
		Kind: model.OpScore, M: newTokens, N: ctx, K: b.headDim,
		Heads: b.localHeads, Context: ctx,
	}))
	c.add(b.opCost(model.Op{
		Kind: model.OpSoftmax, M: newTokens, N: ctx, K: 1,
		Heads: b.localHeads, Context: ctx,
	}))
	c.add(b.opCost(model.Op{
		Kind: model.OpAttend, M: newTokens, N: b.headDim, K: ctx,
		Heads: b.localHeads, Context: ctx,
	}))
	if newTokens == 1 {
		b.decodeAttn.put(ctx, c, unpriced)
	} else {
		b.attn[packKey(newTokens, ctx)] = c
	}
	return c
}

// opCost places one operator on the hardware roofline: latency is the
// larger of the compute-bound and bandwidth-bound times, plus the
// per-operator launch overhead (charged to the dominant side).
// Efficiency derates every dense matmul — the weight GEMMs and the
// attention Score/Attend matmuls, which are compute-bound in prefill —
// while elementwise/normalization operators run at full peak (they are
// bandwidth-bound on any realistic device, so the roof never binds).
func (b *Backend) opCost(op model.Op) cost {
	peak := b.hw.PeakFLOPs
	if op.Kind.IsGEMM() || op.Kind == model.OpScore || op.Kind == model.OpAttend {
		peak *= b.hw.Efficiency
	}
	computeSec := float64(op.FLOPs()) / peak
	memorySec := float64(op.TotalBytes(b.cfg.Model.DTypeBytes)) / b.hw.MemBWBytes
	lat := b.hw.LaunchOverhead
	if computeSec >= memorySec {
		lat += simtime.FromSeconds(computeSec)
		return cost{compute: lat}
	}
	lat += simtime.FromSeconds(memorySec)
	return cost{memory: lat}
}

// networkCost prices the iteration's collectives: two ring all-reduces
// per block over the activation payload (attention projection and FFN
// output) when tensor-parallel, point-to-point activation transfers
// between pipeline stages, and the LM-head all-gather of the sharded
// vocabulary.
func (b *Backend) networkCost(nseqs, totalNew int) simtime.Duration {
	m := b.cfg.Model
	topo := b.cfg.Topo
	d := int64(m.DTypeBytes)
	actBytes := int64(totalNew) * int64(m.Hidden) * d

	var net simtime.Duration
	if topo.TP > 1 {
		net += simtime.Duration(m.Layers) * 2 * topo.AllReduce(actBytes, topo.TP)
		headBytes := int64(nseqs) * int64(m.Vocab/topo.TP) * d
		net += topo.AllGather(headBytes, topo.TP)
	}
	if topo.Stages > 1 {
		net += simtime.Duration(topo.Stages-1) * topo.P2P(actBytes)
	}
	return net
}

// pagingCost prices KV-cache eviction/reload traffic over the host
// link. Pages are sharded across devices, which transfer their shares
// concurrently, so each op costs one per-device share.
func (b *Backend) pagingCost(ops []sched.PageOp) simtime.Duration {
	if len(ops) == 0 {
		return 0
	}
	npus := int64(b.cfg.Topo.NPUNodes())
	var net simtime.Duration
	for _, op := range ops {
		share := op.Bytes / npus
		if share == 0 {
			share = op.Bytes
		}
		net += b.cfg.Topo.HostTransfer(share)
	}
	return net
}
