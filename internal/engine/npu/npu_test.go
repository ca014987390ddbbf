package npu

import (
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/simtime"
)

func newEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(config.DefaultNPU())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func run(t *testing.T, e *Engine, op model.Op) simtime.Duration {
	t.Helper()
	c, err := e.Compile(op)
	if err != nil {
		t.Fatalf("compile %s: %v", op.Name, err)
	}
	lat, err := e.Simulate(c)
	if err != nil {
		t.Fatalf("simulate %s: %v", op.Name, err)
	}
	return lat
}

// streaming returns the time to move bytes at the engine's DRAM
// bandwidth, the floor of any memory-bound operator.
func streaming(e *Engine, bytes int64) simtime.Duration {
	return simtime.FromSeconds(float64(bytes) / e.Config().MemoryBWBytes)
}

func gemm(m, n, k, heads int) model.Op {
	return model.Op{
		Kind: model.OpQKVGen, Name: "gemm", M: m, N: n, K: k, Heads: heads,
		Weights: int64(n) * int64(k) * 2,
	}
}

func TestNewValidates(t *testing.T) {
	bad := config.DefaultNPU()
	bad.FrequencyHz = 0
	if _, err := New(bad); err == nil {
		t.Fatal("invalid config must fail")
	}
}

func TestEngineInterface(t *testing.T) {
	e := newEngine(t)
	if e.Kind() != engine.NPU {
		t.Fatal("kind")
	}
	if e.Name() == "" || e.MemoryBytes() <= 0 {
		t.Fatal("descriptor methods")
	}
	for _, k := range []model.OpKind{model.OpSoftmax, model.OpQKVGen} {
		if _, err := e.Compile(model.Op{Kind: k, Name: k.String(), M: 4, N: 64, K: 64, Heads: 1}); err != nil {
			t.Fatalf("NPU must compile every operator: %v", err)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	e := newEngine(t)
	if _, err := e.Compile(model.Op{Kind: model.OpQKVGen, M: 0, N: 1, K: 1}); err == nil {
		t.Fatal("zero dims must fail")
	}
}

func TestForeignArtifact(t *testing.T) {
	e := newEngine(t)
	if _, err := e.Simulate(fakeCompiled{}); err == nil {
		t.Fatal("foreign artifact must fail")
	}
}

type fakeCompiled struct{}

// TestGEMMRooflineBounds: a simulated GEMM can never beat the device's
// compute roof or memory roof.
func TestGEMMRooflineBounds(t *testing.T) {
	e := newEngine(t)
	cfg := e.Config()
	cases := []model.Op{
		gemm(512, 4096, 4096, 1), // large square-ish
		gemm(1, 4096, 4096, 1),   // GEMV
		gemm(128, 128, 128, 1),   // single tile
		gemm(1, 1024, 128, 32),   // multi-head attention score shape
	}
	for _, op := range cases {
		lat := run(t, e, op)
		computeFloor := simtime.FromSeconds(float64(op.FLOPs()) / cfg.PeakFLOPs())
		memoryFloor := streaming(e, op.Weights+op.InputBytes(2))
		if lat < computeFloor {
			t.Errorf("%v: latency %v beats compute floor %v", op, lat, computeFloor)
		}
		if lat < memoryFloor {
			t.Errorf("%v: latency %v beats memory floor %v", op, lat, memoryFloor)
		}
	}
}

// TestGEMMEfficiency: a full-tile GEMM should achieve a healthy fraction
// of peak (the fill and memory overheads must not dominate).
func TestGEMMEfficiency(t *testing.T) {
	e := newEngine(t)
	op := gemm(2048, 4096, 4096, 1)
	achieved := float64(op.FLOPs()) / run(t, e, op).Seconds()
	frac := achieved / e.Config().PeakFLOPs()
	if frac < 0.5 {
		t.Fatalf("large GEMM achieves only %.0f%% of peak", 100*frac)
	}
}

// TestGEMVMemoryBound: a single-token GEMV must be memory-bound: its
// weight-streaming time exceeds its time at peak compute, and its
// latency is at least the streaming time and within twice it (tile
// packing keeps the array fed).
func TestGEMVMemoryBound(t *testing.T) {
	e := newEngine(t)
	op := gemm(1, 12288, 4096, 1)
	lat, floor := run(t, e, op), streaming(e, op.Weights)
	if compute := simtime.FromSeconds(float64(op.FLOPs()) / e.Config().PeakFLOPs()); floor <= compute {
		t.Fatalf("GEMV streams its weights in %v, within its compute floor %v", floor, compute)
	}
	if lat < floor || lat > 2*floor {
		t.Fatalf("GEMV latency %v outside [1, 2] x its weight-streaming floor %v", lat, floor)
	}
}

func TestLatencyMonotonicInM(t *testing.T) {
	e := newEngine(t)
	prev := simtime.Duration(0)
	for _, m := range []int{1, 64, 128, 512, 2048} {
		lat := run(t, e, gemm(m, 1024, 1024, 1))
		if lat < prev {
			t.Fatalf("latency decreased at M=%d", m)
		}
		prev = lat
	}
}

func TestHeadsScaleLatency(t *testing.T) {
	e := newEngine(t)
	one := run(t, e, gemm(1, 256, 128, 1))
	eight := run(t, e, gemm(1, 256, 128, 8))
	if eight < 4*one {
		t.Fatalf("8 heads %v should cost several times 1 head %v", eight, one)
	}
}

func TestVectorOps(t *testing.T) {
	e := newEngine(t)
	ln := run(t, e, model.Op{Kind: model.OpLayerNorm, Name: "ln", M: 512, N: 4096, K: 1, Heads: 1})
	res := run(t, e, model.Op{Kind: model.OpResidue, Name: "res", M: 512, N: 4096, K: 1, Heads: 1})
	if ln <= res {
		t.Fatalf("layernorm (3 passes) %v should cost more than residual (1 pass) %v", ln, res)
	}
	sm := run(t, e, model.Op{Kind: model.OpSoftmax, Name: "sm", M: 64, N: 512, K: 1, Heads: 8})
	if sm <= 0 {
		t.Fatal("softmax must take time")
	}
}

// TestEmbedMemoryBound: an embedding gather is pure data movement, so
// its latency is at least the time to move its rows at DRAM bandwidth
// and within twice it.
func TestEmbedMemoryBound(t *testing.T) {
	e := newEngine(t)
	op := model.Op{Kind: model.OpEmbed, Name: "embed", M: 512, N: 4096, K: 1, Heads: 1}
	lat, floor := run(t, e, op), streaming(e, int64(op.M)*int64(op.N)*dtypeBytes)
	if lat < floor || lat > 2*floor {
		t.Fatalf("embedding latency %v outside [1, 2] x its streaming floor %v", lat, floor)
	}
}

func TestTileCountAndInstructions(t *testing.T) {
	e := newEngine(t)
	c, err := e.Compile(gemm(512, 512, 512, 1))
	if err != nil {
		t.Fatal(err)
	}
	if TileCount(c) <= 0 || Instructions(c) <= 0 {
		t.Fatal("compiled GEMM must expose tiles and instructions")
	}
	// 512/128 = 4 M-tiles x 4 N-tiles x 1 K-tile (fits in SRAM).
	if got := TileCount(c); got != 16 {
		t.Fatalf("tile count = %d, want 16", got)
	}
	if TileCount(fakeCompiled{}) != 0 || Instructions(fakeCompiled{}) != 0 {
		t.Fatal("foreign artifacts report zero")
	}
}

// TestTileCountScalesWithShape: bigger operators compile to more tiles, so
// compile/simulate cost scales with model size (the property the reuse
// optimisations exploit).
func TestTileCountScalesWithShape(t *testing.T) {
	e := newEngine(t)
	small, _ := e.Compile(gemm(128, 128, 128, 1))
	big, _ := e.Compile(gemm(1024, 1024, 4096, 1))
	if TileCount(big) < 32*TileCount(small) {
		t.Fatalf("tile scaling broken: %d vs %d", TileCount(big), TileCount(small))
	}
}

// TestDeterminism: identical compiles and simulations give identical
// results (required for reuse-equivalence).
func TestDeterminism(t *testing.T) {
	e := newEngine(t)
	op := gemm(300, 700, 900, 4)
	a := run(t, e, op)
	b := run(t, e, op)
	if a != b {
		t.Fatalf("nondeterministic results: %+v vs %+v", a, b)
	}
}

// TestLatencyPositiveProperty fuzzes shapes through compile+simulate:
// every latency is positive and at least the time to stream every head's
// weights and inputs once at DRAM bandwidth.
func TestLatencyPositiveProperty(t *testing.T) {
	e := newEngine(t)
	f := func(m, n, k uint8, heads uint8) bool {
		op := gemm(int(m)+1, int(n)+1, int(k)+1, int(heads)%8+1)
		c, err := e.Compile(op)
		if err != nil {
			return false
		}
		lat, err := e.Simulate(c)
		floor := streaming(e, int64(op.Heads)*int64(op.M+op.N)*int64(op.K)*dtypeBytes)
		return err == nil && lat > 0 && lat >= floor
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
