package model

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func initBatch(n, prompt int) []Seq {
	b := make([]Seq, n)
	for i := range b {
		b[i] = Seq{ReqID: i, NewTokens: prompt, Phase: Initiation}
	}
	return b
}

func genBatch(n, ctx int) []Seq {
	b := make([]Seq, n)
	for i := range b {
		b[i] = Seq{ReqID: i, NewTokens: 1, Context: ctx, Phase: Generation}
	}
	return b
}

func TestBuildIterationStructure(t *testing.T) {
	cfg := MustLookup("gpt3-7b")
	it, err := BuildIteration(cfg, initBatch(4, 100), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Selective batching: 8 batched ops + 3 per-request attention ops each.
	if want := 8 + 3*4; len(it.Block) != want {
		t.Fatalf("block ops = %d, want %d", len(it.Block), want)
	}
	if it.TotalNewTokens != 400 {
		t.Fatalf("total new tokens = %d", it.TotalNewTokens)
	}
	if it.Embed.Kind != OpEmbed || it.Head.Kind != OpLMHead {
		t.Fatal("embed/head missing")
	}
	// Batched ops cover all tokens; attention is per request.
	for _, op := range it.Block {
		if op.Kind.IsAttention() {
			if op.Batched || op.ReqID < 0 {
				t.Fatalf("attention op %s must be per-request", op.Name)
			}
		} else if !op.Batched || op.ReqID != -1 {
			t.Fatalf("op %s must be batched", op.Name)
		}
	}
}

func TestBuildIterationPhases(t *testing.T) {
	cfg := MustLookup("gpt3-7b")
	init, _ := BuildIteration(cfg, initBatch(2, 64), 1)
	gen, _ := BuildIteration(cfg, genBatch(2, 64), 1)
	if init.Block[0].Phase != Initiation || gen.Block[0].Phase != Generation {
		t.Fatal("phase labels wrong")
	}
	// Generation attention is GEMV-shaped: M=1 with context-length K or N.
	for _, op := range gen.Block {
		if op.Kind == OpScore && (op.M != 1 || op.N != 65) {
			t.Fatalf("gen Score shape %dx%d", op.M, op.N)
		}
		if op.Kind == OpAttend && (op.M != 1 || op.K != 65) {
			t.Fatalf("gen Attend shape M=%d K=%d", op.M, op.K)
		}
	}
}

func TestBuildIterationTensorParallel(t *testing.T) {
	cfg := MustLookup("gpt3-7b") // 32 heads, hidden 4096, ffn 16384
	it1, _ := BuildIteration(cfg, initBatch(1, 128), 1)
	it4, _ := BuildIteration(cfg, initBatch(1, 128), 4)

	find := func(it *IterationOps, k OpKind) Op {
		for _, op := range it.Block {
			if op.Kind == k {
				return op
			}
		}
		t.Fatalf("missing op %v", k)
		return Op{}
	}
	if q1, q4 := find(it1, OpQKVGen), find(it4, OpQKVGen); q4.N*4 != q1.N {
		t.Fatalf("QKV shard: %d vs %d", q4.N, q1.N)
	}
	if f1, f4 := find(it1, OpFFN1), find(it4, OpFFN1); f4.N*4 != f1.N {
		t.Fatalf("FFN shard: %d vs %d", f4.N, f1.N)
	}
	if s1, s4 := find(it1, OpScore), find(it4, OpScore); s4.Heads*4 != s1.Heads {
		t.Fatalf("head shard: %d vs %d", s4.Heads, s1.Heads)
	}
}

func TestBuildIterationPaddedShards(t *testing.T) {
	cfg := MustLookup("gpt3-30b") // 56 heads
	it, err := BuildIteration(cfg, genBatch(1, 100), 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range it.Block {
		if op.Kind == OpScore && op.Heads != 4 { // ceil(56/16)
			t.Fatalf("padded heads = %d, want 4", op.Heads)
		}
	}
}

func TestBuildIterationErrors(t *testing.T) {
	cfg := MustLookup("gpt2")
	cases := []struct {
		batch []Seq
		tp    int
		want  string
	}{
		{nil, 1, "empty batch"},
		{[]Seq{{ReqID: 0, NewTokens: 0}}, 1, "NewTokens"},
		{[]Seq{{ReqID: 0, NewTokens: 1, Context: -1}}, 1, "negative context"},
		{[]Seq{{ReqID: 0, NewTokens: 5000}}, 1, "exceeds max"},
		{initBatch(1, 8), 0, "must be positive"},
	}
	for i, c := range cases {
		if _, err := BuildIteration(cfg, c.batch, c.tp); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: got %v, want %q", i, err, c.want)
		}
	}
}

func TestAllOps(t *testing.T) {
	cfg := MustLookup("gpt2") // 12 layers
	it, _ := BuildIteration(cfg, initBatch(2, 16), 1)
	all := it.AllOps()
	if want := 2 + 12*len(it.Block); len(all) != want {
		t.Fatalf("AllOps = %d, want %d", len(all), want)
	}
	if !strings.HasPrefix(all[1].Name, "layer0.") || !strings.HasPrefix(all[len(all)-2].Name, "layer11.") {
		t.Fatal("layer naming wrong")
	}
}

// TestTotalFLOPs checks the classic ~2*params FLOPs-per-token rule for a
// single-token forward pass.
func TestTotalFLOPs(t *testing.T) {
	cfg := MustLookup("gpt3-7b")
	it, _ := BuildIteration(cfg, genBatch(1, 1), 1)
	flops := float64(it.TotalFLOPs())
	want := 2 * float64(cfg.Params())
	ratio := flops / want
	if ratio < 0.8 || ratio > 1.3 {
		t.Fatalf("FLOPs/token ratio = %.2f (got %.2e, want ~%.2e)", ratio, flops, want)
	}
}

func TestAttentionPartition(t *testing.T) {
	cfg := MustLookup("gpt2")
	it, _ := BuildIteration(cfg, genBatch(3, 32), 1)
	attn, non := it.AttentionOps(), it.NonAttentionOps()
	if len(attn) != 9 { // 3 ops x 3 requests
		t.Fatalf("attention ops = %d", len(attn))
	}
	if len(attn)+len(non) != len(it.Block) {
		t.Fatal("partition must cover the block")
	}
	for _, i := range attn {
		if !it.Block[i].Kind.IsAttention() {
			t.Fatal("misclassified attention op")
		}
	}
}

func TestContextLengths(t *testing.T) {
	cfg := MustLookup("gpt2")
	batch := []Seq{
		{ReqID: 0, NewTokens: 1, Context: 10, Phase: Generation},
		{ReqID: 1, NewTokens: 1, Context: 10, Phase: Generation},
		{ReqID: 2, NewTokens: 1, Context: 20, Phase: Generation},
	}
	it, _ := BuildIteration(cfg, batch, 1)
	got := it.ContextLengths()
	if len(got) != 2 || got[0] != 11 || got[1] != 21 {
		t.Fatalf("ContextLengths = %v", got)
	}
}

func TestShapeKeyCaching(t *testing.T) {
	a := Op{Kind: OpScore, Name: "Score.r0", Phase: Generation, M: 1, N: 65, K: 128, Heads: 8, ReqID: 0, Context: 65}
	b := a
	b.Name, b.ReqID = "Score.r9", 9
	if a.ShapeID() != b.ShapeID() {
		t.Fatal("identical shapes must share a cache key regardless of request identity")
	}
	c := a
	c.Context, c.N = 66, 66
	if a.ShapeID() == c.ShapeID() {
		t.Fatal("different context lengths must not collide")
	}
}

// TestFLOPsNonNegativeProperty fuzzes op shapes: FLOPs, byte counts and
// intensity must always be non-negative and the intensity finite.
func TestFLOPsNonNegativeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		op := Op{
			Kind:  OpKind(rng.Intn(int(numOpKinds))),
			M:     1 + rng.Intn(512),
			N:     1 + rng.Intn(512),
			K:     1 + rng.Intn(512),
			Heads: 1 + rng.Intn(16),
		}
		if op.FLOPs() <= 0 || op.InputBytes(2) < 0 || op.OutputBytes(2) <= 0 {
			return false
		}
		ai := op.ArithmeticIntensity(2)
		return ai >= 0 && ai < 1e9
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestGEMMFLOPsExact pins the GEMM FLOPs formula.
func TestGEMMFLOPsExact(t *testing.T) {
	op := Op{Kind: OpQKVGen, M: 3, N: 5, K: 7, Heads: 1}
	if got := op.FLOPs(); got != 2*3*5*7 {
		t.Fatalf("FLOPs = %d", got)
	}
	op.Heads = 4
	if got := op.FLOPs(); got != 4*2*3*5*7 {
		t.Fatalf("FLOPs with heads = %d", got)
	}
}

// TestMoEBuilder verifies the Section V-B mixture-of-experts extension:
// a router GEMM appears, FFN rows widen by TopK, weight traffic covers
// the activated experts, and parameter counts grow with the expert count
// while per-token FLOPs grow only with TopK.
func TestMoEBuilder(t *testing.T) {
	moe := MustLookup("moe-8x7b")
	dense := MustLookup("llama-7b")
	if !moe.IsMoE() || dense.IsMoE() {
		t.Fatal("IsMoE flags wrong")
	}
	// ~8 experts of 3 x 4096 x 14336 each over 32 layers + attention.
	if p := moe.Params(); p < 40e9 || p > 55e9 {
		t.Fatalf("moe-8x7b params %.1fB, want ~47B", float64(p)/1e9)
	}

	it, err := BuildIteration(moe, genBatch(4, 64), 1)
	if err != nil {
		t.Fatal(err)
	}
	var gate, ffn1 *Op
	for i := range it.Block {
		switch it.Block[i].Kind {
		case OpGate:
			gate = &it.Block[i]
		case OpFFN1:
			ffn1 = &it.Block[i]
		}
	}
	if gate == nil {
		t.Fatal("MoE block must contain a Gate operator")
	}
	if gate.N != 8 || gate.M != 4 {
		t.Fatalf("gate shape %dx%d", gate.M, gate.N)
	}
	if ffn1 == nil || ffn1.M != 4*2 {
		t.Fatalf("FFN rows must widen by TopK: %+v", ffn1)
	}
	// 4 tokens x top-2 = 8 activations -> all 8 experts' weights stream.
	wantW := int64(8) * int64(2*moe.FFN) * int64(moe.Hidden) * 2
	if ffn1.Weights != wantW {
		t.Fatalf("FFN1 weights %d, want %d", ffn1.Weights, wantW)
	}

	// Dense model emits no gate.
	itDense, _ := BuildIteration(dense, genBatch(4, 64), 1)
	for _, op := range itDense.Block {
		if op.Kind == OpGate {
			t.Fatal("dense model must not emit a gate")
		}
	}
}

// TestMoEActiveExpertsCapped: a single-token decode activates only TopK
// experts' weights, not all of them.
func TestMoEActiveExpertsCapped(t *testing.T) {
	moe := MustLookup("moe-8x7b")
	it, err := BuildIteration(moe, genBatch(1, 64), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range it.Block {
		if op.Kind == OpFFN1 {
			wantW := int64(2) * int64(2*moe.FFN) * int64(moe.Hidden) * 2 // 2 active experts
			if op.Weights != wantW {
				t.Fatalf("single-token FFN1 weights %d, want %d", op.Weights, wantW)
			}
		}
	}
}

// TestMoEEndToEndValidation: invalid MoE configs are rejected.
func TestMoEConfigValidation(t *testing.T) {
	bad := MustLookup("moe-8x7b")
	bad.TopK = 0
	if bad.Validate() == nil {
		t.Fatal("topk=0 must fail")
	}
	bad.TopK = 9
	if bad.Validate() == nil {
		t.Fatal("topk>experts must fail")
	}
	bad = MustLookup("moe-8x7b")
	bad.Experts = -1
	if bad.Validate() == nil {
		t.Fatal("negative experts must fail")
	}
}
