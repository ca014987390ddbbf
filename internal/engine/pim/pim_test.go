package pim

import (
	"testing"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/engine/npu"
	"repro/internal/model"
	"repro/internal/simtime"
)

func npuEngine() (engine.Engine, error) { return npu.New(config.DefaultNPU()) }

func newEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(config.DefaultPIM())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func run(t *testing.T, e *Engine, op model.Op) simtime.Duration {
	t.Helper()
	c, err := e.Compile(op)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	lat, err := e.Simulate(c)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	return lat
}

func scoreOp(ctx, heads int) model.Op {
	return model.Op{Kind: model.OpScore, Name: "score", M: 1, N: ctx, K: 128, Heads: heads, Context: ctx}
}

func attendOp(ctx, heads int) model.Op {
	return model.Op{Kind: model.OpAttend, Name: "attend", M: 1, N: 128, K: ctx, Heads: heads, Context: ctx}
}

func TestNewValidates(t *testing.T) {
	bad := config.DefaultPIM()
	bad.Channels = 0
	if _, err := New(bad); err == nil {
		t.Fatal("invalid config must fail")
	}
}

// TestSupportsOnlyAttention: PIM compiles the attention core and
// rejects every other operator, the heterogeneous mapping's split.
func TestSupportsOnlyAttention(t *testing.T) {
	e := newEngine(t)
	for _, k := range []model.OpKind{model.OpScore, model.OpAttend, model.OpSoftmax} {
		if _, err := e.Compile(model.Op{Kind: k, Name: k.String(), M: 1, N: 64, K: 64, Heads: 8}); err != nil {
			t.Fatalf("PIM must support the attention core: %v", err)
		}
	}
	for _, k := range []model.OpKind{model.OpQKVGen, model.OpFFN1, model.OpLayerNorm} {
		if _, err := e.Compile(model.Op{Kind: k, Name: k.String(), M: 1, N: 64, K: 64, Heads: 1}); err == nil {
			t.Fatalf("PIM must reject compute-bound operator %s", k)
		}
	}
}

func TestCompileRejectsGEMM(t *testing.T) {
	e := newEngine(t)
	if _, err := e.Compile(model.Op{Kind: model.OpFFN1, M: 1, N: 2, K: 3}); err == nil {
		t.Fatal("FFN on PIM must fail")
	}
	if _, err := e.Compile(scoreOp(0, 1)); err == nil {
		t.Fatal("zero dims must fail")
	}
}

func TestEngineInterface(t *testing.T) {
	e := newEngine(t)
	if e.Kind() != engine.PIM {
		t.Fatal("kind")
	}
	if e.MemoryBytes() != 32*config.GB {
		t.Fatal("Table I memory")
	}
	if e.Config().PeakFLOPs() <= 0 || e.Config().MemoryBWBytes != 1e12 {
		t.Fatal("Table I bandwidth")
	}
}

// TestGEMVNearBandwidth: the whole point of PIM — GEMV runs near the
// aggregate internal bandwidth: within three times the time to stream
// every head's V cache once, and never below it.
func TestGEMVNearBandwidth(t *testing.T) {
	e := newEngine(t)
	op := attendOp(2048, 32)
	lat := run(t, e, op)
	vCache := int64(op.Heads) * int64(op.K) * int64(op.N) * dtypeBytes
	floor := simtime.FromSeconds(float64(vCache) / e.Config().MemoryBWBytes)
	if lat < floor {
		t.Fatalf("latency %v beats the bandwidth floor %v", lat, floor)
	}
	if lat > 3*floor {
		t.Fatalf("PIM GEMV %v too far above bandwidth floor %v", lat, floor)
	}
}

// TestPIMBeatsNPUOnDecodeAttention: the heterogeneous mapping premise —
// generation-phase attention is faster on PIM than on the NPU.
func TestPIMBeatsNPUOnDecodeAttention(t *testing.T) {
	p := newEngine(t)
	n, err := npuEngine()
	if err != nil {
		t.Fatal(err)
	}
	op := attendOp(1024, 32)
	pimRes := run(t, p, op)

	c, err := n.Compile(op)
	if err != nil {
		t.Fatal(err)
	}
	npuRes, err := n.Simulate(c)
	if err != nil {
		t.Fatal(err)
	}
	if pimRes >= npuRes {
		t.Fatalf("PIM attend %v should beat NPU %v", pimRes, npuRes)
	}
}

func TestContextScalesLatency(t *testing.T) {
	e := newEngine(t)
	small := run(t, e, scoreOp(128, 8))
	large := run(t, e, scoreOp(2048, 8))
	if large <= small {
		t.Fatal("longer context must cost more")
	}
}

func TestSoftmaxOnPIM(t *testing.T) {
	e := newEngine(t)
	r := run(t, e, model.Op{Kind: model.OpSoftmax, Name: "sm", M: 1, N: 1024, K: 1, Heads: 32, Context: 1024})
	if r <= 0 {
		t.Fatal("softmax must take time")
	}
}

func TestMoreChannelsFaster(t *testing.T) {
	few := config.DefaultPIM()
	few.Channels = 4
	many := config.DefaultPIM()
	many.Channels = 32
	eFew, _ := New(few)
	eMany, _ := New(many)
	op := attendOp(4096, 32)
	rFew := run(t, eFew, op)
	rMany := run(t, eMany, op)
	if rMany > rFew {
		t.Fatalf("more banks should not be slower: %v vs %v", rMany, rFew)
	}
}

func TestForeignArtifact(t *testing.T) {
	e := newEngine(t)
	if _, err := e.Simulate(fake{}); err == nil {
		t.Fatal("foreign artifact must fail")
	}
}

type fake struct{}

func (fake) Op() model.Op { return model.Op{} }
