package engine_test

import (
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/engine/npu"
	"repro/internal/engine/pim"
	"repro/internal/model"
	"repro/internal/simtime"
)

// memoContext is the context bound the test memos are built with; the
// streams draw contexts a little past it.
const memoContext = 64

// countingEngine counts the calls that reach the engine it wraps.
type countingEngine struct {
	engine.Engine
	compiles, simulates int
}

func (c *countingEngine) Compile(op model.Op) (engine.Compiled, error) {
	c.compiles++
	return c.Engine.Compile(op)
}

func (c *countingEngine) Simulate(x engine.Compiled) (simtime.Duration, error) {
	c.simulates++
	return c.Engine.Simulate(x)
}

// newEngine builds a fresh NPU or PIM engine.
func newEngine(t *testing.T, kind engine.Kind) engine.Engine {
	t.Helper()
	var (
		e   engine.Engine
		err error
	)
	if kind == engine.PIM {
		e, err = pim.New(config.DefaultPIM())
	} else {
		e, err = npu.New(config.DefaultNPU())
	}
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// pair is a memo over one stack and, beside it, a bare stack over an
// identical engine: the oracle every memo answer is checked against.
type pair struct {
	memo *engine.Memo
	via  *engine.Stack // the stack behind memo
	bare *engine.Stack
}

func newPair(t *testing.T, kind engine.Kind, reuse bool) pair {
	return newPairOf(func() engine.Engine { return newEngine(t, kind) }, reuse)
}

func newPairOf(mk func() engine.Engine, reuse bool) pair {
	via := engine.NewStack(mk(), reuse)
	return pair{memo: engine.NewMemo(via, memoContext), via: via, bare: engine.NewStack(mk(), reuse)}
}

// slowEngine multiplies the latencies of the engine it wraps, so that
// some reach past what the memo's attention tables keep (4.3 ms).
type slowEngine struct{ engine.Engine }

func (s slowEngine) Simulate(c engine.Compiled) (simtime.Duration, error) {
	lat, err := s.Engine.Simulate(c)
	return 20000 * lat, err
}

// run prices op both ways and fails unless the latencies match bit for
// bit and both calls fail or succeed together. It returns the latency.
func (p pair) run(t *testing.T, i int, op model.Op) simtime.Duration {
	t.Helper()
	got, gerr := p.memo.RunLatency(&op)
	want, werr := p.bare.RunLatency(&op)
	if (gerr != nil) != (werr != nil) || got != want {
		t.Fatalf("op %d %+v: memo gave %v (err %v), stack %v (err %v)", i, op, got, gerr, want, werr)
	}
	return got
}

// checkStats flushes the memo and fails unless its stack's counters
// equal the bare stack's. Equal misses (calls minus hits) mean both
// stacks compiled and simulated the same shapes.
func (p pair) checkStats(t *testing.T, at string) {
	t.Helper()
	p.memo.Flush()
	if got, want := p.via.Stats(), p.bare.Stats(); got != want {
		t.Fatalf("%s: stats through the memo\n%+v\nbare stack\n%+v", at, got, want)
	}
}

// attnOp builds an attention-core operator of request 0 with m new
// tokens against ctx tokens of context.
func attnOp(kind model.OpKind, phase model.Phase, m, ctx, headDim, heads int) model.Op {
	op := model.Op{Kind: kind, Name: kind.String(), Phase: phase, M: m, N: ctx, K: headDim,
		Heads: heads, Context: ctx}
	switch kind {
	case model.OpSoftmax:
		op.K = 1
	case model.OpAttend:
		op.N, op.K = headDim, ctx
	}
	return op
}

var batchedKinds = [...]model.OpKind{
	model.OpLayerNorm, model.OpQKVGen, model.OpProj, model.OpFFN1, model.OpFFN2,
	model.OpResidue, model.OpEmbed, model.OpLMHead, model.OpGate,
}

// randomOp draws one operator: decode attention over a few contexts,
// head counts (8, and 32 as a PIM pool widens it) and head dims;
// prefill attention; attention whose context dimension disagrees with
// its Context; and, unless attentionOnly, batch-wide operators over a
// few shapes, now and then with several heads, a context or no rows.
// Every kind of hit and miss recurs.
func randomOp(r *rand.Rand, attentionOnly bool) model.Op {
	phase := model.Phase(r.Intn(2))
	if attentionOnly || r.Intn(2) == 0 {
		kind := model.OpScore + model.OpKind(r.Intn(3))
		m := 1
		if r.Intn(8) == 0 {
			m = 2 + r.Intn(15) // prefill
		}
		op := attnOp(kind, phase, m, r.Intn(memoContext+4), 64<<r.Intn(2), 8<<(2*r.Intn(2)))
		if r.Intn(16) == 0 {
			op.Context++ // context dimension and Context disagree
		}
		return op
	}
	kind := batchedKinds[r.Intn(len(batchedKinds))]
	m := [...]int{1, 2, 3, 4, 8, 16, 24, 32}[r.Intn(8)]
	n := [...]int{256, 768, 1024}[r.Intn(3)]
	k := [...]int{1, 256, 1024}[r.Intn(3)]
	op := model.Op{Kind: kind, Name: kind.String(), Phase: phase, M: m, N: n, K: k,
		Heads: 1, ReqID: -1, Batched: true}
	switch r.Intn(32) {
	case 0:
		op.Heads = 2
	case 1:
		op.Context = n
	case 2:
		op.M = 0
	}
	return op
}

// TestMemoMatchesStack replays random operator streams through a memo
// and through a bare Stack: every latency must match bit for bit, and
// after every Flush so must every Stats counter.
func TestMemoMatchesStack(t *testing.T) {
	for _, kind := range []engine.Kind{engine.NPU, engine.PIM} {
		for seed := int64(1); seed <= 4; seed++ {
			r := rand.New(rand.NewSource(seed))
			p := newPair(t, kind, true)
			for i := range 4000 {
				p.run(t, i, randomOp(r, kind == engine.PIM))
				if r.Intn(200) == 0 {
					p.checkStats(t, kind.String())
				}
			}
			p.checkStats(t, kind.String())
		}
	}
}

// TestMemoLongLatencies: latencies too long for the attention tables
// are priced on the Stack every time, never truncated.
func TestMemoLongLatencies(t *testing.T) {
	p := newPairOf(func() engine.Engine { return slowEngine{newEngine(t, engine.PIM)} }, true)
	long := 0
	for round := range 3 {
		for ctx := range memoContext + 1 {
			op := attnOp(model.OpAttend, model.Generation, 1, ctx, 128, 32)
			if p.run(t, round, op) >= 1<<32 {
				long++
			}
		}
	}
	p.checkStats(t, "long latencies")
	if long == 0 {
		t.Fatal("no latency reached 4.3 ms; the test exercises nothing")
	}
}

// TestMemoPinsFixedDims: decode attention at one context but with a
// different head count (as a PIM pool widens it), head dim, token
// count or phase is another shape. The memo must not answer it from
// the first shape's table entry.
func TestMemoPinsFixedDims(t *testing.T) {
	const ctx = 40
	ops := []model.Op{
		attnOp(model.OpScore, model.Generation, 1, ctx, 128, 8),
		attnOp(model.OpScore, model.Generation, 1, ctx, 128, 32),
		attnOp(model.OpScore, model.Generation, 1, ctx, 64, 8),
		attnOp(model.OpScore, model.Generation, 2, ctx, 128, 8),
		attnOp(model.OpScore, model.Initiation, 1, ctx, 128, 8),
		attnOp(model.OpAttend, model.Generation, 1, ctx, 128, 8),
		attnOp(model.OpAttend, model.Generation, 1, ctx, 128, 32),
		attnOp(model.OpAttend, model.Generation, 1, ctx, 64, 8),
		attnOp(model.OpSoftmax, model.Generation, 1, ctx, 128, 8),
		attnOp(model.OpSoftmax, model.Generation, 1, ctx, 128, 32),
	}
	for _, kind := range []engine.Kind{engine.NPU, engine.PIM} {
		p := newPair(t, kind, true)
		for round := range 3 {
			for i, op := range ops {
				p.run(t, 100*round+i, op)
			}
			p.checkStats(t, kind.String())
		}
	}
}

// TestMemoSlotCollision: two weight GEMMs that share a direct-mapped
// slot evict each other. Each eviction costs a miss in the memo (a hit
// in the Stack), never the other shape's latency. The partner differs
// from the first GEMM in one dimension at a time.
func TestMemoSlotCollision(t *testing.T) {
	a := model.Op{Kind: model.OpQKVGen, Name: "QKVGen", Phase: model.Generation,
		M: 4, N: 768, K: 256, Heads: 1, ReqID: -1, Batched: true}
	scratch := newStack(t, true)
	la, err := scratch.RunLatency(&a)
	if err != nil {
		t.Fatal(err)
	}
	for _, dim := range []struct {
		name string
		set  func(op *model.Op, v int)
	}{
		{"M", func(op *model.Op, v int) { op.M = v }},
		{"N", func(op *model.Op, v int) { op.N = v }},
		{"K", func(op *model.Op, v int) { op.K = v }},
	} {
		// Find a shape in a's slot whose latency differs from a's, so
		// that answering one with the other's latency shows.
		b := a
		for v := 1; ; v++ {
			if v > 1<<16 {
				t.Fatalf("%s: no colliding shape with a different latency", dim.name)
			}
			dim.set(&b, v)
			if b == a || engine.SlotOf(&b) != engine.SlotOf(&a) {
				continue
			}
			if lb, err := scratch.RunLatency(&b); err != nil {
				t.Fatal(err)
			} else if lb != la {
				break
			}
		}
		p := newPair(t, engine.NPU, true)
		for i := range 20 {
			p.run(t, 2*i, a)
			p.run(t, 2*i+1, b)
		}
		p.checkStats(t, "collision in "+dim.name)
	}
}

// TestMemoReuseOff: without computation reuse the memo keeps nothing,
// every call reaches the engine and no hit is counted, the paper's
// no-reuse baseline.
func TestMemoReuseOff(t *testing.T) {
	eng := &countingEngine{Engine: newEngine(t, engine.NPU)}
	s := engine.NewStack(eng, false)
	m := engine.NewMemo(s, memoContext)
	ops := []model.Op{gemmOp(64), attnOp(model.OpScore, model.Generation, 1, 10, 64, 8)}
	const rounds = 5
	for range rounds {
		for i := range ops {
			if _, err := m.RunLatency(&ops[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.Flush()
	n := rounds * len(ops)
	if eng.compiles != n || eng.simulates != n {
		t.Fatalf("engine saw %d compiles and %d simulations of %d calls", eng.compiles, eng.simulates, n)
	}
	if st := s.Stats(); st.CompileHits != 0 || st.SimulateHits != 0 || st.SimulateCalls != int64(n) {
		t.Fatalf("no-reuse stats %+v", st)
	}
}

// TestMemoAddHits: operators counted with AddHits instead of priced
// reach the stack's counters at the next Flush exactly as pricing them
// again would have.
func TestMemoAddHits(t *testing.T) {
	p := newPair(t, engine.NPU, true)
	ops := []model.Op{gemmOp(64), attnOp(model.OpScore, model.Generation, 1, 10, 64, 8), gemmOp(32)}
	for i, op := range ops {
		p.run(t, i, op)
	}
	p.checkStats(t, "priced once")
	const rounds = 3
	for range rounds {
		for i := range ops {
			if _, err := p.bare.RunLatency(&ops[i]); err != nil {
				t.Fatal(err)
			}
		}
		p.memo.AddHits(int64(len(ops)))
	}
	p.checkStats(t, "counted again")
}
