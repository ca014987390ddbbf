package gpu

import (
	"testing"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/simtime"
)

func newEngine(t *testing.T, flash bool) *Engine {
	t.Helper()
	cfg := config.DefaultGPU()
	cfg.FlashAttention = flash
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func run(t *testing.T, e *Engine, op model.Op) simtime.Duration {
	t.Helper()
	c, err := e.Compile(op)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := e.Simulate(c)
	if err != nil {
		t.Fatal(err)
	}
	return lat
}

func TestNewValidates(t *testing.T) {
	bad := config.DefaultGPU()
	bad.PeakFLOPs = 0
	if _, err := New(bad); err == nil {
		t.Fatal("invalid config must fail")
	}
}

func TestEngineInterface(t *testing.T) {
	e := newEngine(t, true)
	if e.Kind() != engine.GPU {
		t.Fatal("kind")
	}
	for _, k := range []model.OpKind{model.OpQKVGen, model.OpScore} {
		if _, err := e.Compile(model.Op{Kind: k, Name: k.String(), M: 4, N: 64, K: 64, Heads: 1}); err != nil {
			t.Fatalf("GPU must compile every operator: %v", err)
		}
	}
	if e.Name() == "" || e.MemoryBytes() <= 0 {
		t.Fatal("descriptor methods")
	}
}

func TestCompileErrors(t *testing.T) {
	e := newEngine(t, true)
	if _, err := e.Compile(model.Op{Kind: model.OpProj, M: 1, N: 0, K: 1}); err == nil {
		t.Fatal("zero dims must fail")
	}
}

func TestLaunchOverheadFloor(t *testing.T) {
	e := newEngine(t, true)
	lat := run(t, e, model.Op{Kind: model.OpResidue, Name: "tiny", M: 1, N: 1, K: 1, Heads: 1})
	floor := simtime.FromSeconds(e.Config().KernelLaunchUs * 1e-6)
	if lat < floor {
		t.Fatalf("latency %v below kernel launch floor %v", lat, floor)
	}
}

// TestFlashAttentionReducesTraffic: with FlashAttention the score matrix
// never hits HBM, so the attention kernel moves fewer bytes for long
// contexts. Both kernels are compute-bound at this prefill shape, where
// the fused one must still not be slower; on a device with a thousand
// times the compute both are memory-bound, and the saved traffic shows
// as a lower latency.
func TestFlashAttentionReducesTraffic(t *testing.T) {
	op := model.Op{Kind: model.OpScore, Name: "score", Phase: model.Initiation,
		M: 512, N: 512, K: 128, Heads: 32, Context: 512}
	withFlash := run(t, newEngine(t, true), op)
	without := run(t, newEngine(t, false), op)
	if withFlash > without {
		t.Fatalf("flash %v should not be slower than unfused %v", withFlash, without)
	}
	fast := func(flash bool) simtime.Duration {
		e := newEngine(t, flash)
		e.cfg.PeakFLOPs *= 1000
		return run(t, e, op)
	}
	if withFlash, without = fast(true), fast(false); withFlash >= without {
		t.Fatalf("memory-bound flash %v should beat unfused %v", withFlash, without)
	}
}

// TestSkinnyGEMMDegrades: decode-phase GEMVs cannot reach GEMM
// efficiency; they are memory-bound, taking at least the time to move
// their bytes at HBM bandwidth and within twice it.
func TestSkinnyGEMMDegrades(t *testing.T) {
	e := newEngine(t, true)
	fat := model.Op{Kind: model.OpFFN1, M: 1024, N: 4096, K: 4096, Heads: 1, Weights: 4096 * 4096 * 2}
	thin := fat
	thin.M = 1
	rFat := run(t, e, fat)
	rThin := run(t, e, thin)
	// Per-FLOP cost must be far higher for the skinny shape.
	fatRate := float64(fat.FLOPs()) / rFat.Seconds()
	thinRate := float64(thin.FLOPs()) / rThin.Seconds()
	if thinRate > fatRate/4 {
		t.Fatalf("skinny GEMM rate %.2e should be far below fat %.2e", thinRate, fatRate)
	}
	floor := simtime.FromSeconds(float64(thin.TotalBytes(dtypeBytes)) / e.Config().MemoryBWBytes)
	if rThin < floor || rThin > 2*floor {
		t.Fatalf("decode GEMV latency %v outside [1, 2] x its HBM streaming floor %v", rThin, floor)
	}
}

// TestRooflineBound: latency never beats the device rooflines.
func TestRooflineBound(t *testing.T) {
	e := newEngine(t, true)
	cfg := e.Config()
	op := model.Op{Kind: model.OpFFN1, M: 2048, N: 8192, K: 8192, Heads: 1, Weights: 8192 * 8192 * 2}
	lat := run(t, e, op)
	computeFloor := simtime.FromSeconds(float64(op.FLOPs()) / cfg.PeakFLOPs)
	if lat < computeFloor {
		t.Fatalf("latency %v beats compute floor %v", lat, computeFloor)
	}
}

func TestDeterminism(t *testing.T) {
	e := newEngine(t, true)
	op := model.Op{Kind: model.OpAttend, M: 1, N: 128, K: 777, Heads: 16, Context: 777}
	if run(t, e, op) != run(t, e, op) {
		t.Fatal("nondeterministic")
	}
}

func TestForeignArtifact(t *testing.T) {
	e := newEngine(t, true)
	if _, err := e.Simulate(fake{}); err == nil {
		t.Fatal("foreign artifact must fail")
	}
}

type fake struct{}

func (fake) Op() model.Op { return model.Op{} }
