// Package astra adapts the paper's full hardware/system co-simulation
// pipeline — execution-engine compilation and simulation per operator,
// graph conversion, and discrete-event system simulation (the
// ASTRA-sim-style stage) — behind the perfmodel.Backend interface.
//
// This is the reference backend: it is the exact code path the simulator
// ran before latency estimation became pluggable, and the golden
// determinism suite pins it bit-for-bit. The roofline backend trades this
// fidelity for speed.
//
// Model-redundancy reuse runs through all three phases: the engines
// price one decoder block, graph conversion emits each pipeline stage's
// block once as a repeat span, and the event simulation time-shifts the
// repeats once their schedule is steady (see internal/graph and
// internal/astra). With it off, every block is priced, emitted and
// simulated, the paper's conventional-simulator baseline; iteration
// latencies are identical either way.
//
// Computation reuse reaches past the engines the same way: an
// iteration's graph is rewritten in place, and run over the executor's
// compiled schedule, when it has the previous graph's shape. It also
// carries whole iterations over in steady decode. When a batch is the
// previous one's decode batch a step on (the same requests in the same
// order and sub-batches, each decoding one token, and no KV paging),
// only its attention operators changed. The batched operators,
// embedding and LM head keep last iteration's trace, and each request's
// Score, Softmax and Attend are repriced at its new context. Attention
// latency grows with every token, since the PIM engine streams every
// context row, so the trace almost never repeats. Interleaved
// sub-batches are NPU-bound, though, so the block work the trace
// reduces to often does; the graph then converts to the previous graph
// exactly, and its stored makespan is returned without converting or
// executing. The skipped operators count as the engine-cache double hits
// a full run would have counted. The steady path needs model-redundancy
// reuse too. With either reuse off, every iteration converts,
// validates, compiles and simulates from scratch.
package astra

import (
	"fmt"
	"slices"
	"time"

	astrasim "repro/internal/astra"
	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/engine/npu"
	"repro/internal/engine/pim"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// Options configures the engine stacks behind the adapter.
type Options struct {
	NPU config.NPUConfig
	PIM config.PIMConfig // used when Config.PIMMode != PIMNone

	// EngineFactory optionally overrides the NPU engine (e.g. with the
	// GPU reference model for validation runs). When nil the systolic
	// NPU engine is used.
	EngineFactory func() (engine.Engine, error)
}

// Backend runs the Fig. 4 hardware/system pipeline for each iteration.
type Backend struct {
	cfg perfmodel.Config
	npu *engine.Stack
	pim *engine.Stack

	// host meters the three phases per iteration on the backend's own
	// iteration counter, timing a sample (see metrics.StepSampler).
	host metrics.SampledTimes

	// Operators are priced through owner-local memos in front of the
	// stacks (nil pimMemo when pim is nil); runEngines folds their hits
	// into the stacks' counters before it returns.
	npuMemo, pimMemo *engine.Memo
	npuKind, pimKind engine.Kind

	// Decoder blocks simulated event by event and advanced by the
	// executor's steady-state time shift (see BlockCounts).
	blocksSimulated, blocksShifted int64

	// steady is the last iteration as the steady decode path reads it;
	// nil until a decode batch is priced with both reuses on.
	steady *steady

	// reference runs every iteration in full, and the executor's event
	// loop for every plan: the plain path differential tests compare the
	// fast paths with. Only tests set it.
	reference bool

	// Reusable per-iteration scratch. The execution graph is converted
	// in place: an iteration of the shape it already holds rewrites only
	// its durations (see graph.ConvertInto), and the executor keeps the
	// plan it compiled for the graph's build.
	exec     astrasim.Executor // system-simulation plan and scratch state
	interlv  trace.Scheduler   // sub-batch interleaving scratch state
	gbuf     *graph.Graph
	itemsBuf []trace.Item   // the last engine phase's merged trace
	groups   [][]model.Seq  // per-sub-batch sequence groups
	single   [1][]model.Seq // the unpartitioned batch's one group
	memOps   []graph.MemOp
	stage0   []int // devices of pipeline stage 0
	reqBytes map[int]int64
	attnBuf  map[int]simtime.Duration
	itBuf    model.IterationOps
}

// New validates the configuration and assembles the engine stacks.
func New(cfg perfmodel.Config, opts Options) (*Backend, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &Backend{
		cfg:  cfg,
		gbuf: graph.New(),
	}

	var eng engine.Engine
	var err error
	if opts.EngineFactory != nil {
		eng, err = opts.EngineFactory()
	} else {
		eng, err = npu.New(opts.NPU)
	}
	if err != nil {
		return nil, err
	}
	b.npu = engine.NewStack(eng, cfg.Reuse.ComputationReuse)
	b.npuMemo = engine.NewMemo(b.npu, cfg.Model.MaxSeqLen)
	b.npuKind = eng.Kind()

	if cfg.PIMMode != perfmodel.PIMNone {
		p, err := pim.New(opts.PIM)
		if err != nil {
			return nil, err
		}
		b.pim = engine.NewStack(p, cfg.Reuse.ComputationReuse)
		b.pimMemo = engine.NewMemo(b.pim, cfg.Model.MaxSeqLen)
		b.pimKind = p.Kind()
	}
	return b, nil
}

// Name identifies the backend.
func (b *Backend) Name() string { return "astra" }

// DeviceMemoryBytes reports the NPU engine's device memory capacity.
func (b *Backend) DeviceMemoryBytes() int64 { return b.npu.Engine().MemoryBytes() }

// Host returns the adapter's host-time breakdown: exact over the first
// 64 iterations since ResetStats, a sampled estimate beyond.
func (b *Backend) Host() metrics.ComponentTimes { return b.host.Times() }

// BlockCounts reports the decoder blocks priced since the last
// ResetStats: those the system simulator executed node by node, and
// those it advanced by an exact time shift once a stage's block
// schedule repeated (model-redundancy reuse carried into the graph).
// With reuse off every block is simulated.
func (b *Backend) BlockCounts() (simulated, shifted int64) {
	return b.blocksSimulated, b.blocksShifted
}

// ResetStats zeroes host-time, block and engine-cache instrumentation,
// and restarts the host-time sampling; the result caches persist.
func (b *Backend) ResetStats() {
	b.host = metrics.SampledTimes{}
	b.blocksSimulated, b.blocksShifted = 0, 0
	b.npu.ResetStats()
	if b.pim != nil {
		b.pim.ResetStats()
	}
}

// NPUStack exposes the NPU execution engine stack.
func (b *Backend) NPUStack() *engine.Stack { return b.npu }

// PIMStack exposes the PIM execution engine stack (nil when PIMMode is
// none).
func (b *Backend) PIMStack() *engine.Stack { return b.pim }

// placement derives the graph attention placement from the config.
func (b *Backend) placement() graph.AttentionPlacement {
	switch {
	case b.cfg.PIMMode == perfmodel.PIMPool:
		return graph.PIMPool
	case b.cfg.SelectiveBatching && b.cfg.Topo.TP > 1:
		return graph.RequestSplit
	default:
		return graph.HeadSplit
	}
}

// IterationLatency runs the hardware and system simulation of one batch
// and returns the iteration latency. The discrete-event schedule
// interleaves compute, memory, and network inseparably, so the breakdown
// is left zero.
func (b *Backend) IterationLatency(batch *sched.Batch) (simtime.Duration, perfmodel.Breakdown, error) {
	if !b.host.Sample() {
		lat, err := b.iterate(batch, nil)
		return lat, perfmodel.Breakdown{}, err
	}
	var t metrics.ComponentTimes
	lat, err := b.iterate(batch, &t)
	b.host.Record(t)
	return lat, perfmodel.Breakdown{}, err
}

// engineWork is what the execution-engine phase hands the graph
// converter.
type engineWork struct {
	block             graph.BlockWork
	embedDur, headDur simtime.Duration
	totalNew          int
}

// steady is what the steady decode path keeps of the last iteration. It
// is valid when that iteration ended without error on a decode batch
// without paging; then the graph and the executor hold its conversion.
type steady struct {
	valid bool
	seqs  []steadySeq // in batch order

	// attn holds a Score, Softmax and Attend operator of the batch: the
	// templates each request's attention is repriced from.
	attn [3]model.Op
	// hits counts the NPU operators the batch priced besides attention:
	// a repeat skips them, and counts each as the double hit it would
	// have been.
	hits int64

	work     engineWork // the engine phase's output, as converted
	makespan simtime.Duration
	shifted  int // blocks the executor time-shifted
}

// steadySeq is one sequence of the kept batch.
type steadySeq struct {
	req   int
	sub   int32 // sub-batch index, 0 when unpartitioned
	score int32 // trace index of its Score; its Softmax and Attend follow
}

// iterate runs the engine, graph-conversion and system-simulation phases
// of one batch. When t is non-nil it reads the clock between phases and
// stores each phase's host time there.
func (b *Backend) iterate(batch *sched.Batch, t *metrics.ComponentTimes) (simtime.Duration, error) {
	var mark time.Time
	if t != nil {
		mark = time.Now()
	}
	st := b.steadyStep(batch)
	if b.steady != nil {
		b.steady.valid = false // until this iteration succeeds
	}
	var work engineWork
	var moved bool // whether any attention latency changed on the steady path
	var err error
	if st != nil {
		work, moved, err = b.reprice(batch, st)
	} else {
		work, err = b.runEngines(batch)
	}
	if t != nil {
		t.ExecutionEngine = lap(&mark)
	}
	if err != nil {
		return 0, err
	}

	if st != nil && st.sameWork(work.block, moved) {
		// The graph and the executor already hold this conversion.
		if t != nil {
			t.GraphConverter = lap(&mark)
			t.AstraSim = lap(&mark)
		}
		b.countBlocks(st.shifted)
		b.keep(batch, st, work, st.makespan, st.shifted)
		return st.makespan, nil
	}

	g, err := b.convert(batch, work)
	if t != nil {
		t.GraphConverter = lap(&mark)
	}
	if err != nil {
		return 0, err
	}

	res, err := b.exec.Execute(g)
	if t != nil {
		t.AstraSim = lap(&mark)
	}
	if err != nil {
		return 0, err
	}
	b.countBlocks(res.BlocksShifted)
	b.keep(batch, st, work, res.Makespan, res.BlocksShifted)
	return res.Makespan, nil
}

// countBlocks adds one iteration's decoder blocks, shifted of them
// time-shifted, to the block counts.
func (b *Backend) countBlocks(shifted int) {
	b.blocksShifted += int64(shifted)
	b.blocksSimulated += int64(b.cfg.Model.Layers - shifted)
}

// steadyStep returns the steady state when batch is the last
// iteration's decode batch a step on, and nil when it runs in full: the
// same requests in the same order and sub-batches, each in generation
// with one new token and within the model's length, and no KV paging.
// Then only the requests' contexts differ, and only attention reads
// them.
func (b *Backend) steadyStep(batch *sched.Batch) *steady {
	st := b.steady
	if st == nil || !st.valid || len(batch.PageOps) > 0 || len(batch.Seqs) != len(st.seqs) ||
		batch.SubBatch != nil && len(batch.SubBatch) != len(batch.Seqs) {
		return nil
	}
	for i, q := range batch.Seqs {
		sub := 0
		if batch.SubBatch != nil {
			sub = batch.SubBatch[i]
		}
		if p := &st.seqs[i]; q.ReqID != p.req || sub != int(p.sub) || q.Phase != model.Generation ||
			q.NewTokens != 1 || q.TotalLen() > b.cfg.Model.MaxSeqLen {
			return nil
		}
	}
	return st
}

// keep records a successful iteration for the next one's steady check.
// st is the steady state the iteration was repriced from, nil if it ran
// in full; a full run is kept when it priced a decode batch without
// paging, with both reuses on and outside the reference path.
func (b *Backend) keep(batch *sched.Batch, st *steady, work engineWork, makespan simtime.Duration, shifted int) {
	if st == nil {
		if b.reference || !b.cfg.Reuse.ComputationReuse || !b.cfg.Reuse.ModelRedundancy || len(batch.PageOps) > 0 {
			return
		}
		for _, q := range batch.Seqs {
			if q.Phase != model.Generation || q.NewTokens != 1 {
				return
			}
		}
		if st = b.steady; st == nil {
			st = new(steady)
			b.steady = st
		}
		st.record(batch, b.itemsBuf, b.itBuf.Block)
	}
	st.valid = true
	st.work, st.makespan, st.shifted = work, makespan, shifted
}

// record keeps a decode batch priced in full: its sequences, their
// places in its trace items, an attention template of each kind from
// the last sub-batch's block, and the count of its other operators.
func (st *steady) record(batch *sched.Batch, items []trace.Item, block []model.Op) {
	n := len(batch.Seqs)
	st.seqs = slices.Grow(st.seqs[:0], n)[:n]
	var last int32 // the highest sub-batch index
	for i, q := range batch.Seqs {
		p := &st.seqs[i]
		p.req, p.sub = q.ReqID, 0
		if batch.SubBatch != nil {
			p.sub = int32(batch.SubBatch[i])
		}
		last = max(last, p.sub)
	}
	// The trace holds the non-empty sub-batches in ascending order, each
	// with its sequences' attention in batch order (see groupSeqs).
	k := 0
	for sb := range last + 1 {
		for i := range st.seqs {
			if st.seqs[i].sub == sb {
				for items[k].OpKind != model.OpScore {
					k++
				}
				st.seqs[i].score = int32(k)
				k++
			}
		}
	}
	// The sub-batches' attention operators differ only in context.
	i := slices.IndexFunc(block, func(op model.Op) bool { return op.Kind.IsAttention() })
	copy(st.attn[:], block[i:i+len(st.attn)])
	nSub := items[len(items)-1].SubBatch + 1
	st.hits = int64(len(items) - len(st.attn)*n + 2*nSub) // + Embed and Head
}

// sameWork reports whether block, repriced from the kept iteration's,
// converts to the graph that iteration left: its fused span or its
// pre- and post-attention times are unchanged, and so is every
// request's attention unless a fused span replaces it.
func (st *steady) sameWork(block graph.BlockWork, moved bool) bool {
	last := &st.work.block
	return block.Monolithic == last.Monolithic && block.Pre == last.Pre && block.Post == last.Post &&
		(block.Monolithic > 0 || !moved)
}

// reprice is the engine phase of a steady decode step: the kept
// iteration's trace, with each request's Score, Softmax and Attend
// priced at its new context through the memos, and every other
// operator counted as the memo hit it would have been. It reports
// whether any attention latency changed.
func (b *Backend) reprice(batch *sched.Batch, st *steady) (engineWork, bool, error) {
	defer b.flushMemos()
	b.npuMemo.AddHits(st.hits)
	items := b.itemsBuf
	moved := false
	for i := range batch.Seqs {
		q := &batch.Seqs[i]
		ctx := q.TotalLen()
		k := int(st.seqs[i].score)
		for j := range st.attn {
			op := &st.attn[j]
			op.ReqID, op.Context = q.ReqID, ctx
			if op.Kind == model.OpAttend {
				op.K = ctx
			} else {
				op.N = ctx
			}
			_, lat, err := b.runOperator(op)
			if err != nil {
				return engineWork{}, false, err
			}
			if it := &items[k+j]; it.Latency != lat {
				it.Latency, moved = lat, true
			}
		}
	}
	work := st.work
	var err error
	work.block, err = b.assembleBlockWork(items, items[len(items)-1].SubBatch+1)
	return work, moved, err
}

// flushMemos folds the memos' hits into the stacks' counters.
func (b *Backend) flushMemos() {
	b.npuMemo.Flush()
	if b.pimMemo != nil {
		b.pimMemo.Flush()
	}
}

// lap returns the time since *mark and moves *mark to now.
func lap(mark *time.Time) time.Duration {
	now := time.Now()
	d := now.Sub(*mark)
	*mark = now
	return d
}

// runEngines performs the execution-engine phase: build each sub-batch's
// operator workload, map operators to engines (Algorithm 1, line 6), run
// the compiler/simulator stacks, and merge the traces.
func (b *Backend) runEngines(batch *sched.Batch) (engineWork, error) {
	defer b.flushMemos()

	var zero engineWork
	if batch.SubBatch != nil && len(batch.SubBatch) != len(batch.Seqs) {
		return zero, fmt.Errorf("astra: %d sub-batch indices for %d sequences", len(batch.SubBatch), len(batch.Seqs))
	}
	subBatches := b.groupSeqs(batch)
	reps := 1
	if !b.cfg.Reuse.ModelRedundancy {
		// Without model-redundancy reuse every transformer block is
		// compiled and simulated separately, like conventional simulators.
		reps = b.cfg.Model.Layers
	}

	allItems := b.itemsBuf[:0]
	defer func() { b.itemsBuf = allItems }()
	var embedDur, headDur simtime.Duration
	totalNew := 0
	widen := 1
	if b.pim != nil && b.cfg.PIMMode == perfmodel.PIMPool {
		// A PIM pool runs attention at full head count on the pool
		// devices (the group's head shards gather there).
		widen = b.cfg.Topo.TP
	}

	for sbIdx, seqs := range subBatches {
		it := &b.itBuf
		if err := model.BuildIterationInto(it, b.cfg.Model, seqs, b.cfg.Topo.TP); err != nil {
			return zero, err
		}
		totalNew += it.TotalNewTokens
		if widen > 1 {
			for i := range it.Block {
				if op := &it.Block[i]; op.Kind.IsAttention() {
					op.Heads *= widen
				}
			}
		}

		for rep := 0; rep < reps; rep++ {
			for i := range it.Block {
				op := &it.Block[i]
				kind, latency, err := b.runOperator(op)
				if err != nil {
					return zero, err
				}
				if rep == 0 {
					// Written in place: a composite literal goes through
					// a stack temporary first.
					allItems = append(allItems, trace.Item{})
					item := &allItems[len(allItems)-1]
					item.OpKind, item.ReqID, item.Name = op.Kind, op.ReqID, op.Name
					item.Kind, item.Latency = kind, latency
					item.SubBatch, item.Seq = sbIdx, i
				}
			}
		}
		eDur, err := b.npuMemo.RunLatency(&it.Embed)
		if err != nil {
			return zero, err
		}
		hDur, err := b.npuMemo.RunLatency(&it.Head)
		if err != nil {
			return zero, err
		}
		embedDur += eDur
		headDur += hDur
	}

	block, err := b.assembleBlockWork(allItems, len(subBatches))
	if err != nil {
		return zero, err
	}
	return engineWork{block: block, embedDur: embedDur, headDur: headDur, totalNew: totalNew}, nil
}

// runOperator maps one operator to an engine and prices it there,
// returning the engine's kind. The operator-mapping strategy:
// attention-core operators go to the PIM engine when one is configured.
func (b *Backend) runOperator(op *model.Op) (engine.Kind, simtime.Duration, error) {
	if b.pimMemo == nil || !op.Kind.IsAttention() {
		lat, err := b.npuMemo.RunLatency(op)
		return b.npuKind, lat, err
	}
	lat, err := b.pimMemo.RunLatency(op)
	return b.pimKind, lat, err
}

// assembleBlockWork reduces the merged engine trace into the graph
// converter's per-layer work description.
func (b *Backend) assembleBlockWork(items []trace.Item, nSub int) (graph.BlockWork, error) {
	var work graph.BlockWork
	if len(items) == 0 {
		return work, fmt.Errorf("astra backend: engine phase produced no trace items")
	}

	if nSub > 1 {
		// Sub-batch interleaving: the execution engine stack's operator
		// scheduler overlaps sub-batches across the heterogeneous engines
		// (Algorithm 1, line 14); the block behaves as one fused span.
		makespan, err := b.interlv.Makespan(items)
		if err != nil {
			return work, err
		}
		// The fused span replaces the per-request attention placement, so
		// the graph converter needs no Attn map.
		work.Monolithic = makespan
		return work, nil
	}

	if b.attnBuf == nil {
		b.attnBuf = map[int]simtime.Duration{}
	}
	seg := trace.SplitSegmentsInto(items, b.attnBuf)
	work.Pre, work.Post = seg.Pre, seg.Post
	work.Attn = seg.Attn
	if b.cfg.PIMMode == perfmodel.PIMPool {
		// Attention items carry full-head PIM costs; expose them for the
		// pool placement and keep per-request identity for fan-out.
		work.PIMAttn = seg.Attn
	}
	return work, nil
}

// convert builds the iteration's execution graph into the backend's
// reused graph buffer; the result is valid until the next convert call.
// With computation reuse off it also ends the graph's build and drops the
// executor's plans, so nothing carries over between iterations.
func (b *Backend) convert(batch *sched.Batch, work engineWork) (*graph.Graph, error) {
	m := b.cfg.Model
	d := int64(m.DTypeBytes)
	actBytes := int64(work.totalNew) * int64(m.Hidden) * d

	// Only PIM-pool placement moves per-request activations, so only it
	// reads their sizes.
	placement := b.placement()
	var reqBytes map[int]int64
	if placement == graph.PIMPool {
		if b.reqBytes == nil {
			b.reqBytes = map[int]int64{}
		}
		clear(b.reqBytes)
		for _, q := range batch.Seqs {
			b.reqBytes[q.ReqID] = int64(q.NewTokens) * int64(m.Hidden) * d
		}
		reqBytes = b.reqBytes
	}

	// KV paging transfers are sharded across devices; stage-0 workers gate
	// the iteration, so the per-device share is charged there.
	memOps := b.memOps[:0]
	if len(batch.PageOps) > 0 {
		npus := int64(b.cfg.Topo.NPUNodes())
		b.stage0 = b.cfg.Topo.AppendStageNodes(b.stage0[:0], 0)
		stage0 := b.stage0
		for _, op := range batch.PageOps {
			share := op.Bytes / npus
			if share == 0 {
				share = op.Bytes
			}
			for _, dev := range stage0 {
				memOps = append(memOps, graph.MemOp{Device: dev, Bytes: share, Load: op.Load})
			}
		}
	}
	b.memOps = memOps

	if !b.cfg.Reuse.ComputationReuse {
		b.gbuf.Reset()
		b.exec.Reset()
	}
	err := graph.ConvertInto(b.gbuf, graph.Params{
		Topo:            b.cfg.Topo,
		Layers:          m.Layers,
		Block:           work.block,
		EmbedDur:        work.embedDur,
		HeadDur:         work.headDur,
		ActBytes:        actBytes,
		HeadGatherBytes: int64(len(batch.Seqs)) * int64(m.Vocab/b.cfg.Topo.TP) * d,
		ReqBytes:        reqBytes,
		Placement:       placement,
		MemOps:          memOps,
		RepeatBlocks:    b.cfg.Reuse.ModelRedundancy,
	})
	if err != nil {
		return nil, err
	}
	return b.gbuf, nil
}

// groupSeqs splits the batch into sub-batch sequence groups in index
// order. The groups live in backend-owned buffers valid until the next
// call. The unpartitioned case returns batch.Seqs itself as the only
// group, and never through the group buffers, so appending into those
// cannot overwrite the batch.
func (b *Backend) groupSeqs(batch *sched.Batch) [][]model.Seq {
	n := 1
	for _, sb := range batch.SubBatch {
		if sb+1 > n {
			n = sb + 1
		}
	}
	if n == 1 {
		// Unpartitioned batch (the common case): one group, already in
		// batch order.
		b.single[0] = batch.Seqs
		return b.single[:]
	}
	for len(b.groups) < n {
		b.groups = append(b.groups, nil)
	}
	groups := b.groups[:n]
	for i := range groups {
		groups[i] = groups[i][:0]
	}
	for i, q := range batch.Seqs {
		sb := batch.SubBatch[i]
		groups[sb] = append(groups[sb], q)
	}
	// Drop empty groups (possible when eviction removed all of one
	// group) by swapping them to the tail, keeping their storage.
	out := 0
	for i := range groups {
		if len(groups[i]) > 0 {
			groups[out], groups[i] = groups[i], groups[out]
			out++
		}
	}
	return groups[:out]
}
