package astra

import (
	"testing"

	astrasim "repro/internal/astra"
	"repro/internal/config"
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

// firstBatch forms the first scheduler batch of the given trace under
// the config's model — the unit IterationLatency prices.
func firstBatch(t *testing.T, cfg perfmodel.Config, reqs []workload.Request) *sched.Batch {
	return firstSubBatched(t, cfg, reqs, 1)
}

// firstSubBatched is firstBatch with the batch split into subBatches
// NeuPIMs-style sub-batches.
func firstSubBatched(t *testing.T, cfg perfmodel.Config, reqs []workload.Request, subBatches int) *sched.Batch {
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
	s, err := sched.New(sched.Config{SubBatches: subBatches}, kv, reqs)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := s.Next()
	if !ok {
		t.Fatal("no batch")
	}
	return b
}

// TestCriticalPathCoversIteration: the critical path through a converted
// graph accounts for the whole makespan on a contention-free single
// device.
func TestCriticalPathCoversIteration(t *testing.T) {
	cfg := testConfig(t, 1)
	b, err := New(cfg, Options{NPU: config.DefaultNPU()})
	if err != nil {
		t.Fatal(err)
	}
	batch := firstBatch(t, cfg, []workload.Request{{ID: 0, InputLen: 32, OutputLen: 1}})
	work, embedDur, headDur, totalNew, err := b.runEngines(batch)
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.convert(batch, work, embedDur, headDur, totalNew)
	if err != nil {
		t.Fatal(err)
	}
	res, err := astrasim.Execute(g)
	if err != nil {
		t.Fatal(err)
	}
	path := astrasim.CriticalPath(g, res)
	var pathDur simtime.Duration
	for _, id := range path {
		pathDur += g.Nodes[id].Duration
	}
	if pathDur != res.Makespan {
		t.Fatalf("critical path %v != makespan %v on serial device", pathDur, res.Makespan)
	}
}

func TestGroupSeqs(t *testing.T) {
	b := &sched.Batch{
		Seqs: []model.Seq{
			{ReqID: 0, NewTokens: 1}, {ReqID: 1, NewTokens: 1}, {ReqID: 2, NewTokens: 1},
		},
		SubBatch: map[int]int{0: 0, 1: 1, 2: 0},
	}
	var be Backend
	groups := be.groupSeqs(b)
	if len(groups) != 2 || len(groups[0]) != 2 || len(groups[1]) != 1 {
		t.Fatalf("groups %v", groups)
	}

	// An unpartitioned batch is returned as itself; a partitioned batch
	// grouped afterwards must not write into it through the reused
	// buffers.
	whole := &sched.Batch{Seqs: []model.Seq{{ReqID: 7}, {ReqID: 8}}, SubBatch: map[int]int{7: 0, 8: 0}}
	if g := be.groupSeqs(whole); len(g) != 1 || &g[0][0] != &whole.Seqs[0] {
		t.Fatalf("unpartitioned groups %v", g)
	}
	// Sub-batch 1 is empty here and must be dropped.
	b.SubBatch = map[int]int{0: 2, 1: 0, 2: 2}
	groups = be.groupSeqs(b)
	if len(groups) != 2 || groups[0][0].ReqID != 1 || len(groups[1]) != 2 || groups[1][1].ReqID != 2 {
		t.Fatalf("regrouped %v", groups)
	}
	if whole.Seqs[0].ReqID != 7 || whole.Seqs[1].ReqID != 8 {
		t.Fatalf("grouping wrote into an unpartitioned batch: %v", whole.Seqs)
	}
}

// TestSubBatchIterationAllocs: once the engine caches and scratch
// buffers are warm, pricing a sub-batched NPU+PIM iteration without KV
// paging allocates nothing: sub-batch grouping, the interleaver, the
// graph converter and the event simulation all reuse backend-owned
// storage.
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
	batch := firstSubBatched(t, cfg, reqs, 2)
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
}

// TestHostTimesAccumulate: the adapter attributes its host time to the
// engine/converter/astra components.
func TestHostTimesAccumulate(t *testing.T) {
	cfg := testConfig(t, 2)
	b, err := New(cfg, Options{NPU: config.DefaultNPU()})
	if err != nil {
		t.Fatal(err)
	}
	batch := firstBatch(t, cfg, []workload.Request{{ID: 0, InputLen: 64, OutputLen: 1}})
	lat, _, err := b.IterationLatency(batch)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Fatal("iteration latency must be positive")
	}
	h := b.Host()
	if h.ExecutionEngine <= 0 || h.GraphConverter <= 0 || h.AstraSim <= 0 {
		t.Fatalf("host times missing: %+v", h)
	}
	if h.Scheduler != 0 {
		t.Fatalf("scheduler host time is the caller's, got %v", h.Scheduler)
	}
	b.ResetStats()
	if got := b.Host(); got.Total() != 0 {
		t.Fatalf("ResetStats left host times: %+v", got)
	}
}
