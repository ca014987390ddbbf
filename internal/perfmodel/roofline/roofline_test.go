package roofline

import (
	"testing"

	"repro/internal/config"
	"repro/internal/model"
	"repro/internal/network"
	"repro/internal/perfmodel"
	"repro/internal/sched"
	"repro/internal/simtime"
)

func testConfig(t testing.TB, npus int) perfmodel.Config {
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

func testHardware(t testing.TB, name string) perfmodel.Hardware {
	t.Helper()
	hw, err := perfmodel.LookupHardware(name)
	if err != nil {
		t.Fatal(err)
	}
	return hw
}

func newBackend(t testing.TB, npus int, hw string) *Backend {
	t.Helper()
	b, err := New(testConfig(t, npus), testHardware(t, hw))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func genBatch(seqs ...model.Seq) *sched.Batch {
	return &sched.Batch{Seqs: seqs}
}

func price(t *testing.T, b *Backend, batch *sched.Batch) (simtime.Duration, perfmodel.Breakdown) {
	t.Helper()
	lat, bd, err := b.IterationLatency(batch)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Fatalf("non-positive latency %v", lat)
	}
	return lat, bd
}

// TestDeterministic: identical batches price identically, across fresh
// backends and across cache-hit/cache-miss paths.
func TestDeterministic(t *testing.T) {
	batch := genBatch(
		model.Seq{ReqID: 0, NewTokens: 64, Phase: model.Initiation},
		model.Seq{ReqID: 1, NewTokens: 1, Context: 100, Phase: model.Generation},
	)
	a := newBackend(t, 2, "rtx3090")
	first, _ := price(t, a, batch)
	again, _ := price(t, a, batch) // cached path
	fresh, _ := price(t, newBackend(t, 2, "rtx3090"), batch)
	if first != again || first != fresh {
		t.Fatalf("nondeterministic pricing: %v / %v / %v", first, again, fresh)
	}
	st := a.Stats()
	if st.BaseMisses != 1 || st.BaseHits != 1 {
		t.Fatalf("base cache stats: %+v", st)
	}
}

// TestMonotonicInContext: a generation step against a longer context
// must cost at least as much (attention grows with context).
func TestMonotonicInContext(t *testing.T) {
	b := newBackend(t, 2, "rtx3090")
	var prev simtime.Duration
	for _, ctx := range []int{16, 64, 256, 1000} {
		lat, _ := price(t, b, genBatch(model.Seq{ReqID: 0, NewTokens: 1, Context: ctx, Phase: model.Generation}))
		if lat < prev {
			t.Fatalf("latency decreased with context %d: %v < %v", ctx, lat, prev)
		}
		prev = lat
	}
}

// TestFasterHardwareIsFaster: the same batch on h100 must beat rtx3090.
func TestFasterHardwareIsFaster(t *testing.T) {
	batch := genBatch(model.Seq{ReqID: 0, NewTokens: 512, Phase: model.Initiation})
	slow, _ := price(t, newBackend(t, 2, "rtx3090"), batch)
	fast, _ := price(t, newBackend(t, 2, "h100"), batch)
	if fast >= slow {
		t.Fatalf("h100 (%v) not faster than rtx3090 (%v)", fast, slow)
	}
}

// TestBreakdownSumsToLatency: compute + memory + network must equal the
// returned latency — the decomposition may not invent or lose time.
func TestBreakdownSumsToLatency(t *testing.T) {
	b := newBackend(t, 4, "a100")
	batch := genBatch(
		model.Seq{ReqID: 0, NewTokens: 128, Phase: model.Initiation},
		model.Seq{ReqID: 1, NewTokens: 1, Context: 512, Phase: model.Generation},
	)
	batch.PageOps = []sched.PageOp{{ReqID: 1, Bytes: 1 << 20, Load: true}}
	lat, bd := price(t, b, batch)
	if sum := bd.Compute + bd.Memory + bd.Network; sum != lat {
		t.Fatalf("breakdown %v+%v+%v = %v != latency %v", bd.Compute, bd.Memory, bd.Network, sum, lat)
	}
	if bd.Network <= 0 {
		t.Fatal("TP collectives + paging must show up in the network share")
	}
}

// TestEfficiencyDeratesPrefillAttention: GEMM efficiency must apply to
// the attention Score/Attend matmuls too — they are compute-bound in
// prefill, and pricing them at full peak would skew roofline-vs-astra
// comparisons toward roofline on prompt-heavy workloads.
func TestEfficiencyDeratesPrefillAttention(t *testing.T) {
	hw := testHardware(t, "a100")
	full := hw
	full.Efficiency = 1
	derated, err := New(testConfig(t, 2), hw)
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := New(testConfig(t, 2), full)
	if err != nil {
		t.Fatal(err)
	}
	batch := genBatch(model.Seq{ReqID: 0, NewTokens: 320, Phase: model.Initiation})
	d, _ := price(t, derated, batch)
	i, _ := price(t, ideal, batch)
	if d <= i {
		t.Fatalf("prefill with efficiency 0.55 (%v) must be slower than at full peak (%v)", d, i)
	}
}

// TestGenerationIsMemoryBound: single-token decode against a long
// context is bandwidth-dominated on GPU-class hardware (the Fig. 2b
// observation motivating PIM offload).
func TestGenerationIsMemoryBound(t *testing.T) {
	b := newBackend(t, 1, "rtx3090")
	_, bd := price(t, b, genBatch(model.Seq{ReqID: 0, NewTokens: 1, Context: 900, Phase: model.Generation}))
	if bd.Memory <= bd.Compute {
		t.Fatalf("decode should be memory-bound: compute %v, memory %v", bd.Compute, bd.Memory)
	}
}

// TestRejectsPIM: the analytical model has no PIM operator mapping.
func TestRejectsPIM(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.PIMMode = perfmodel.PIMLocal
	if _, err := New(cfg, testHardware(t, "rtx3090")); err == nil {
		t.Fatal("expected PIM configurations to be rejected")
	}
}

// TestRejectsOversizedSeq mirrors the builder's context-limit check.
func TestRejectsOversizedSeq(t *testing.T) {
	b := newBackend(t, 2, "rtx3090")
	tooLong := b.cfg.Model.MaxSeqLen + 1
	if _, _, err := b.IterationLatency(genBatch(model.Seq{ReqID: 0, NewTokens: tooLong})); err == nil {
		t.Fatal("expected oversized sequence to be rejected")
	}
	if _, _, err := b.IterationLatency(genBatch()); err == nil {
		t.Fatal("expected empty batch to be rejected")
	}
}

// TestRejectsKeyOverflow: the pricing caches pack two 32-bit counts
// into one key, so a model whose sequences could reach 1<<32 tokens is
// refused, and so is a batch whose new tokens reach 1<<32 in total.
func TestRejectsKeyOverflow(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Model.MaxSeqLen = 1 << 32
	if _, err := New(cfg, testHardware(t, "a100")); err == nil {
		t.Fatal("max sequence length 1<<32 accepted")
	}
	cfg.Model.MaxSeqLen = 1<<32 - 1
	b, err := New(cfg, testHardware(t, "a100"))
	if err != nil {
		t.Fatal(err)
	}
	half := model.Seq{NewTokens: 1 << 31, Phase: model.Initiation}
	if _, _, err := b.IterationLatency(genBatch(half, half)); err == nil {
		t.Fatal("batch of 1<<32 new tokens accepted")
	}
}

// TestPipelineTransfersPriced: a pipeline topology must cost more than
// the network-free single-stage layout for the same per-worker shapes.
func TestPipelineTransfersPriced(t *testing.T) {
	cfg := testConfig(t, 1)
	single, err := New(cfg, testHardware(t, "rtx3090"))
	if err != nil {
		t.Fatal(err)
	}
	pcfg := cfg
	topo, err := network.Build(network.Pipeline, 4, 0, config.DefaultLink(), config.DefaultLink())
	if err != nil {
		t.Fatal(err)
	}
	pcfg.Topo = topo
	piped, err := New(pcfg, testHardware(t, "rtx3090"))
	if err != nil {
		t.Fatal(err)
	}
	batch := genBatch(model.Seq{ReqID: 0, NewTokens: 64, Phase: model.Initiation})
	_, sbd := price(t, single, batch)
	_, pbd := price(t, piped, batch)
	if sbd.Network != 0 {
		t.Fatalf("single device has no network share, got %v", sbd.Network)
	}
	if pbd.Network <= 0 {
		t.Fatal("pipeline stages must pay activation transfers")
	}
}
