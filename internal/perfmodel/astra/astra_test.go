package astra

import (
	"errors"
	"testing"
	"unsafe"

	astrasim "repro/internal/astra"
	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/engine/npu"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/network"
	"repro/internal/perfmodel"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/workload"
)

func testConfig(t *testing.T, npus int) perfmodel.Config {
	t.Helper()
	topo, err := network.Build(network.Tensor, npus, 0, config.DefaultLink(), config.DefaultLink())
	if err != nil {
		t.Fatal(err)
	}
	return perfmodel.Config{
		Model: model.MustLookup("gpt2"),
		Topo:  topo,
		Reuse: perfmodel.ReuseAll(),
	}
}

// TestBackendSizeClass keeps Backend within the 1536-byte malloc size
// class on 64-bit hosts: a few bytes past it and every backend, one per
// replica, costs the next class up.
func TestBackendSizeClass(t *testing.T) {
	if unsafe.Sizeof(int(0)) != 8 {
		t.Skip("size pinned for 64-bit hosts")
	}
	if got := unsafe.Sizeof(Backend{}); got > 1536 {
		t.Fatalf("Backend is %d bytes, past its 1536-byte size class", got)
	}
}

// firstBatch forms the first scheduler batch of the given trace under
// the config's model — the unit IterationLatency prices.
func firstBatch(t *testing.T, cfg perfmodel.Config, reqs []workload.Request) *sched.Batch {
	return firstSubBatched(t, cfg, reqs, sched.Config{SubBatches: 1})
}

// firstSubBatched is firstBatch under the given scheduler configuration,
// e.g. with the batch split into NeuPIMs-style sub-batches.
func firstSubBatched(t testing.TB, cfg perfmodel.Config, reqs []workload.Request, sc sched.Config) *sched.Batch {
	t.Helper()
	b, ok := newScheduler(t, cfg, reqs, sc).Next()
	if !ok {
		t.Fatal("no batch")
	}
	return b
}

// newScheduler builds a scheduler over a paged KV cache for the trace.
func newScheduler(t testing.TB, cfg perfmodel.Config, reqs []workload.Request, sc sched.Config) *sched.Scheduler {
	t.Helper()
	kv, err := kvcache.New(kvcache.Config{
		Policy:        kvcache.Paged,
		PageTokens:    16,
		BytesPerToken: cfg.Model.KVBytesPerToken(),
		CapacityBytes: 8 << 30,
		MaxSeqLen:     cfg.Model.MaxSeqLen,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.New(sc, kv, reqs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCriticalPathCoversIteration: on a single device the converted
// graph is one serial chain, so its makespan is the sum of every node's
// duration. Model-redundancy reuse is off, so every block is emitted
// and executed.
func TestCriticalPathCoversIteration(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.Reuse.ModelRedundancy = false
	b, err := New(cfg, Options{NPU: config.DefaultNPU()})
	if err != nil {
		t.Fatal(err)
	}
	batch := firstBatch(t, cfg, []workload.Request{{ID: 0, InputLen: 32, OutputLen: 1}})
	work, err := b.runEngines(batch)
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.convert(batch, work)
	if err != nil {
		t.Fatal(err)
	}
	var e astrasim.Executor
	res, err := e.Execute(g)
	if err != nil {
		t.Fatal(err)
	}
	var total simtime.Duration
	for _, n := range g.Nodes {
		total += n.Duration
	}
	if total != res.Makespan || res.BlocksShifted != 0 {
		t.Fatalf("node durations sum to %v, makespan %v (%d blocks shifted) on a serial device", total, res.Makespan, res.BlocksShifted)
	}
}

func TestGroupSeqs(t *testing.T) {
	b := &sched.Batch{
		Seqs: []model.Seq{
			{ReqID: 0, NewTokens: 1}, {ReqID: 1, NewTokens: 1}, {ReqID: 2, NewTokens: 1},
		},
		SubBatch: []int{0, 1, 0},
	}
	var be Backend
	groups := be.groupSeqs(b)
	if len(groups) != 2 || len(groups[0]) != 2 || len(groups[1]) != 1 {
		t.Fatalf("groups %v", groups)
	}

	// An unpartitioned batch is returned as itself; a partitioned batch
	// grouped afterwards must not write into it through the reused
	// buffers.
	whole := &sched.Batch{Seqs: []model.Seq{{ReqID: 7}, {ReqID: 8}}, SubBatch: []int{0, 0}}
	if g := be.groupSeqs(whole); len(g) != 1 || &g[0][0] != &whole.Seqs[0] {
		t.Fatalf("unpartitioned groups %v", g)
	}
	// Sub-batch 1 is empty here and must be dropped.
	b.SubBatch = []int{2, 0, 2}
	groups = be.groupSeqs(b)
	if len(groups) != 2 || groups[0][0].ReqID != 1 || len(groups[1]) != 2 || groups[1][1].ReqID != 2 {
		t.Fatalf("regrouped %v", groups)
	}
	if whole.Seqs[0].ReqID != 7 || whole.Seqs[1].ReqID != 8 {
		t.Fatalf("grouping wrote into an unpartitioned batch: %v", whole.Seqs)
	}
}

// TestRejectsMisalignedSubBatch: a batch whose SubBatch does not give
// one index per sequence is refused rather than grouped out of range.
func TestRejectsMisalignedSubBatch(t *testing.T) {
	cfg := testConfig(t, 2)
	b, err := New(cfg, Options{NPU: config.DefaultNPU(), PIM: config.DefaultPIM()})
	if err != nil {
		t.Fatal(err)
	}
	batch := &sched.Batch{
		Seqs:     []model.Seq{{ReqID: 0, NewTokens: 8}, {ReqID: 1, NewTokens: 8}},
		SubBatch: []int{1},
	}
	if _, _, err := b.IterationLatency(batch); err == nil {
		t.Fatal("misaligned sub-batch indices accepted")
	}
}

// TestSubBatchIterationAllocs: once the engine caches and scratch
// buffers are warm, pricing a sub-batched NPU+PIM iteration without KV
// paging allocates nothing: sub-batch grouping, the interleaver, the
// graph converter and the event simulation all reuse backend-owned
// storage. Neither does alternating it with an unpartitioned batch,
// whose graph has another shape: the graph is rebuilt in place and the
// executor recompiles its plan into the storage it holds.
func TestSubBatchIterationAllocs(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.PIMMode = perfmodel.PIMLocal
	b, err := New(cfg, Options{NPU: config.DefaultNPU(), PIM: config.DefaultPIM()})
	if err != nil {
		t.Fatal(err)
	}
	var reqs []workload.Request
	for i := range 6 {
		reqs = append(reqs, workload.Request{ID: i, InputLen: 32 + 16*i, OutputLen: 4})
	}
	batch := firstSubBatched(t, cfg, reqs, sched.Config{SubBatches: 2})
	if len(b.groupSeqs(batch)) != 2 {
		t.Fatalf("batch is not split into 2 sub-batches: %v", batch.SubBatch)
	}
	if _, _, err := b.IterationLatency(batch); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, _, err := b.IterationLatency(batch); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("warmed sub-batched IterationLatency allocates %v times per call", n)
	}

	whole := firstBatch(t, cfg, reqs)
	if _, _, err := b.IterationLatency(whole); err != nil {
		t.Fatal(err)
	}
	split, _ := b.gbuf.Build()
	if _, _, err := b.IterationLatency(batch); err != nil {
		t.Fatal(err)
	}
	if mono, _ := b.gbuf.Build(); mono == split {
		t.Fatal("the sub-batched and the unpartitioned batch convert to one build")
	}
	if n := testing.AllocsPerRun(50, func() {
		for _, bt := range []*sched.Batch{whole, batch} {
			if _, _, err := b.IterationLatency(bt); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Fatalf("alternating shapes allocates %v times per pair of calls", n)
	}
}

// TestHostTimesAccumulate: the adapter attributes its host time to the
// engine/converter/astra components, on a sample of iterations past the
// first 64, and ResetStats restarts the sampling.
func TestHostTimesAccumulate(t *testing.T) {
	cfg := testConfig(t, 2)
	b, err := New(cfg, Options{NPU: config.DefaultNPU()})
	if err != nil {
		t.Fatal(err)
	}
	batch := firstBatch(t, cfg, []workload.Request{{ID: 0, InputLen: 64, OutputLen: 1}})
	for i := 0; i < 3*64+5; i++ {
		lat, _, err := b.IterationLatency(batch)
		if err != nil {
			t.Fatal(err)
		}
		if lat <= 0 {
			t.Fatal("iteration latency must be positive")
		}
		h := b.Host()
		if h.ExecutionEngine <= 0 || h.GraphConverter <= 0 || h.AstraSim <= 0 {
			t.Fatalf("iteration %d: host times missing: %+v", i, h)
		}
		if h.Scheduler != 0 {
			t.Fatalf("scheduler host time is the caller's, got %v", h.Scheduler)
		}
	}
	b.ResetStats()
	if got := b.Host(); got.Total() != 0 {
		t.Fatalf("ResetStats left host times: %+v", got)
	}
	if _, _, err := b.IterationLatency(batch); err != nil {
		t.Fatal(err)
	}
	// Timed only if ResetStats also restarted the sampling.
	if h := b.Host(); h.ExecutionEngine <= 0 || h.GraphConverter <= 0 || h.AstraSim <= 0 {
		t.Fatalf("first iteration after ResetStats untimed: %+v", h)
	}
}

// headFailingEngine fails to compile the LM head once armed.
type headFailingEngine struct {
	engine.Engine
	armed bool
}

func (f *headFailingEngine) Compile(op model.Op) (engine.Compiled, error) {
	if f.armed && op.Kind == model.OpLMHead {
		return nil, errors.New("injected compile failure")
	}
	return f.Engine.Compile(op)
}

// TestMemoHitsReachStackStats: operators priced from the backend's
// memos count in the stacks' Stats as the double hits they stand for,
// by the end of every IterationLatency, including one that fails
// part-way.
func TestMemoHitsReachStackStats(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.PIMMode = perfmodel.PIMLocal
	eng := &headFailingEngine{}
	b, err := New(cfg, Options{PIM: config.DefaultPIM(), EngineFactory: func() (engine.Engine, error) {
		e, err := npu.New(config.DefaultNPU())
		eng.Engine = e
		return eng, err
	}})
	if err != nil {
		t.Fatal(err)
	}
	decode := func(id, ctx int) model.Seq {
		return model.Seq{ReqID: id, NewTokens: 1, Context: ctx, Phase: model.Generation}
	}
	two := &sched.Batch{Seqs: []model.Seq{decode(0, 100), decode(1, 200)}}
	// Per iteration: 2 x 3 attention operators on PIM; 8 block operators,
	// the embedding and the LM head on the NPU. The block's two
	// LayerNorms share a shape, and so do its two residual adds.
	const pimOps, npuOps, npuRepeats = 6, 10, 2
	check := func(at string, s *engine.Stack, calls, hits int64) {
		t.Helper()
		if st := s.Stats(); st.SimulateCalls != calls || st.SimulateHits != hits ||
			st.CompileCalls != calls || st.CompileHits != hits {
			t.Fatalf("%s: %s stats %+v, want %d calls with %d hits", at, s.Engine().Kind(), st, calls, hits)
		}
	}
	for i := int64(1); i <= 3; i++ {
		if _, _, err := b.IterationLatency(two); err != nil {
			t.Fatal(err)
		}
		check("warm-up", b.PIMStack(), pimOps*i, pimOps*(i-1))
		check("warm-up", b.NPUStack(), npuOps*i, npuOps*(i-1)+npuRepeats)
	}
	// Request 0 alone reuses its attention shapes, then fails on its new
	// LM head shape: the attention hits still count.
	eng.armed = true
	if _, _, err := b.IterationLatency(&sched.Batch{Seqs: two.Seqs[:1]}); err == nil {
		t.Fatal("injected failure not reported")
	}
	check("failed iteration", b.PIMStack(), 3*pimOps+3, 2*pimOps+3)
}
