package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/network"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// randomReuseCase draws a small serving configuration across the axes
// block folding touches: model shape (heads, layers), TP/PP layout, PIM
// mode (none, local, pool), sub-batch count, selective batching, and a
// KV budget tight enough that paging transfers enter the graph.
func randomReuseCase(t *testing.T, rng *rand.Rand) (Options, []workload.Request) {
	t.Helper()
	heads := []int{4, 8, 12}[rng.Intn(3)]
	m := model.Config{
		Name: "diff", Layers: 1 + rng.Intn(14), Hidden: 64 * heads, Heads: heads,
		FFN: 256 * heads, Vocab: 8192, MaxSeqLen: 512, DTypeBytes: 2,
	}
	var tp, pp int
	for {
		tp, pp = []int{1, 2, 4}[rng.Intn(3)], 1+rng.Intn(4)
		if heads%tp == 0 {
			break
		}
	}
	mode, groups := network.Hybrid, pp
	switch {
	case pp == 1:
		mode, groups = network.Tensor, 0
	case tp == 1:
		mode, groups = network.Pipeline, 0
	}
	topo, err := network.Build(mode, tp*pp, groups, config.DefaultLink(), config.DefaultLink())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Model: m, Topo: topo,
		NPU: config.DefaultNPU(), PIM: config.DefaultPIM(),
		PIMMode:           PIMMode(rng.Intn(3)),
		SelectiveBatching: rng.Intn(2) == 0,
		Sched:             sched.Config{SubBatches: 1 + rng.Intn(3)},
		KVPolicy:          kvcache.Policy(rng.Intn(2)),
		Reuse:             ReuseAll(),
	}
	if opts.PIMMode == PIMNone {
		opts.Sched.SubBatches = 1 // sub-batch interleaving needs a PIM engine
	}
	if opts.PIMMode == PIMPool {
		opts.Topo.PIMPool = 1 + rng.Intn(3)
	}
	// Weights per device plus room for a few hundred tokens of KV cache
	// per device, so longer batches evict and reload.
	kvTokens := int64(64 + rng.Intn(512))
	opts.NPU.MemoryBytes = m.WeightBytes()/int64(tp*pp) + kvTokens*m.KVBytesPerToken()/int64(tp)
	reqs, err := workload.PoissonTrace(workload.Alpaca(), 6+rng.Intn(10), 200, rng.Int63())
	if err != nil {
		t.Fatal(err)
	}
	return opts, reqs
}

// iterationLatencies runs opts over reqs and returns every iteration's
// latency, the simulated end time and the block counts.
func iterationLatencies(t *testing.T, opts Options, reqs []workload.Request) ([]simtime.Duration, *Report) {
	t.Helper()
	s, err := New(opts, reqs)
	if err != nil {
		t.Fatal(err)
	}
	var lats []simtime.Duration
	s.OnIteration = func(it IterationStats) { lats = append(lats, it.Latency) }
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return lats, rep
}

// TestModelRedundancyReuseDifferential cross-checks model-redundancy
// reuse on one benchmark set of random configurations: with the switch
// on, each pipeline stage's decoder blocks are converted once and
// time-shifted by the system simulator; with it off, every block is
// compiled, converted and simulated. Every iteration latency must be
// identical.
func TestModelRedundancyReuseDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20221104))
	var shifted, paged int64
	for i := range 40 {
		on, reqs := randomReuseCase(t, rng)
		off := on
		off.Reuse.ModelRedundancy = false
		tag := fmt.Sprintf("case %d (%d layers, TP%d PP%d, pim %v pool %d, sub %d, selective %v, kv %v)",
			i, on.Model.Layers, on.Topo.TP, on.Topo.Stages, on.PIMMode, on.Topo.PIMPool,
			on.Sched.SubBatches, on.SelectiveBatching, on.KVPolicy)

		gotLat, got := iterationLatencies(t, on, reqs)
		wantLat, want := iterationLatencies(t, off, reqs)
		if len(gotLat) != len(wantLat) {
			t.Fatalf("%s: %d iterations with reuse, %d without", tag, len(gotLat), len(wantLat))
		}
		for k := range gotLat {
			if gotLat[k] != wantLat[k] {
				t.Fatalf("%s: iteration %d latency %v with reuse, %v without", tag, k, gotLat[k], wantLat[k])
			}
		}
		if got.SimEnd != want.SimEnd {
			t.Fatalf("%s: end %v with reuse, %v without", tag, got.SimEnd, want.SimEnd)
		}
		if want.BlocksShifted != 0 || want.BlocksSimulated != int64(len(wantLat)*on.Model.Layers) {
			t.Fatalf("%s: reuse off simulated %d and shifted %d blocks over %d iterations of %d layers",
				tag, want.BlocksSimulated, want.BlocksShifted, len(wantLat), on.Model.Layers)
		}
		if got.BlocksSimulated+got.BlocksShifted != want.BlocksSimulated {
			t.Fatalf("%s: reuse on simulated %d + shifted %d blocks, reuse off %d", tag,
				got.BlocksSimulated, got.BlocksShifted, want.BlocksSimulated)
		}
		shifted += got.BlocksShifted
		paged += got.KV.Evictions
	}
	if shifted == 0 || paged == 0 {
		t.Fatalf("blocks shifted %d, KV evictions %d: the random set must exercise both", shifted, paged)
	}
}
