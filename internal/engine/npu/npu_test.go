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

func run(t *testing.T, e *Engine, op model.Op) engine.Result {
	t.Helper()
	c, err := e.Compile(op)
	if err != nil {
		t.Fatalf("compile %s: %v", op.Name, err)
	}
	r, err := e.Simulate(c)
	if err != nil {
		t.Fatalf("simulate %s: %v", op.Name, err)
	}
	return r
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
		r := run(t, e, op)
		computeFloor := simtime.FromSeconds(float64(op.FLOPs()) / cfg.PeakFLOPs())
		memoryFloor := simtime.FromSeconds(float64(op.Weights+op.InputBytes(2)) / cfg.MemoryBWBytes)
		if r.Latency < computeFloor {
			t.Errorf("%v: latency %v beats compute floor %v", op, r.Latency, computeFloor)
		}
		if r.Latency < memoryFloor {
			t.Errorf("%v: latency %v beats memory floor %v", op, r.Latency, memoryFloor)
		}
	}
}

// TestGEMMEfficiency: a full-tile GEMM should achieve a healthy fraction
// of peak (the fill and memory overheads must not dominate).
func TestGEMMEfficiency(t *testing.T) {
	e := newEngine(t)
	op := gemm(2048, 4096, 4096, 1)
	r := run(t, e, op)
	achieved := float64(op.FLOPs()) / r.Latency.Seconds()
	frac := achieved / e.Config().PeakFLOPs()
	if frac < 0.5 {
		t.Fatalf("large GEMM achieves only %.0f%% of peak", 100*frac)
	}
}

// TestGEMVMemoryBound: a single-token GEMV must be memory-bound and run
// near the weight-streaming time (tile packing keeps the array fed).
func TestGEMVMemoryBound(t *testing.T) {
	e := newEngine(t)
	op := gemm(1, 12288, 4096, 1)
	r := run(t, e, op)
	if r.Bound != "memory" {
		t.Fatalf("GEMV should be memory bound, got %s", r.Bound)
	}
	streaming := simtime.FromSeconds(float64(op.Weights) / e.Config().MemoryBWBytes)
	if r.Latency > 2*streaming {
		t.Fatalf("GEMV latency %v far above weight-streaming floor %v", r.Latency, streaming)
	}
}

func TestLatencyMonotonicInM(t *testing.T) {
	e := newEngine(t)
	prev := simtime.Duration(0)
	for _, m := range []int{1, 64, 128, 512, 2048} {
		r := run(t, e, gemm(m, 1024, 1024, 1))
		if r.Latency < prev {
			t.Fatalf("latency decreased at M=%d", m)
		}
		prev = r.Latency
	}
}

func TestHeadsScaleLatency(t *testing.T) {
	e := newEngine(t)
	one := run(t, e, gemm(1, 256, 128, 1))
	eight := run(t, e, gemm(1, 256, 128, 8))
	if eight.Latency < 4*one.Latency {
		t.Fatalf("8 heads %v should cost several times 1 head %v", eight.Latency, one.Latency)
	}
}

func TestVectorOps(t *testing.T) {
	e := newEngine(t)
	ln := run(t, e, model.Op{Kind: model.OpLayerNorm, Name: "ln", M: 512, N: 4096, K: 1, Heads: 1})
	res := run(t, e, model.Op{Kind: model.OpResidue, Name: "res", M: 512, N: 4096, K: 1, Heads: 1})
	if ln.Latency <= res.Latency {
		t.Fatalf("layernorm (3 passes) %v should cost more than residual (1 pass) %v", ln.Latency, res.Latency)
	}
	sm := run(t, e, model.Op{Kind: model.OpSoftmax, Name: "sm", M: 64, N: 512, K: 1, Heads: 8})
	if sm.Latency <= 0 {
		t.Fatal("softmax must take time")
	}
}

func TestEmbedMemoryBound(t *testing.T) {
	e := newEngine(t)
	r := run(t, e, model.Op{Kind: model.OpEmbed, Name: "embed", M: 512, N: 4096, K: 1, Heads: 1})
	if r.Bound != "memory" {
		t.Fatal("embedding must be memory bound")
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

// TestLatencyPositiveProperty fuzzes shapes through compile+simulate.
func TestLatencyPositiveProperty(t *testing.T) {
	e := newEngine(t)
	f := func(m, n, k uint8, heads uint8) bool {
		op := gemm(int(m)+1, int(n)+1, int(k)+1, int(heads)%8+1)
		c, err := e.Compile(op)
		if err != nil {
			return false
		}
		r, err := e.Simulate(c)
		return err == nil && r.Latency > 0 && r.BytesMoved > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
