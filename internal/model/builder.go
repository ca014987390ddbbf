package model

import (
	"fmt"
	"sort"
)

// Seq describes one request's contribution to an iteration batch.
type Seq struct {
	ReqID     int
	NewTokens int   // tokens processed this iteration (prompt length or 1)
	Context   int   // tokens already resident in the KV cache
	Phase     Phase // Initiation when NewTokens covers the prompt
}

// TotalLen returns the sequence length after this iteration completes.
func (s Seq) TotalLen() int { return s.Context + s.NewTokens }

// IterationOps is the operator workload of one serving iteration under
// selective batching (Orca): token-parallel operators (QKV, FFN, LayerNorm,
// projections) are batched across every sequence, while the attention core
// is emitted per request because each request attends over a different
// context length.
//
// Block holds the operators of ONE transformer block; the engines exploit
// model-redundancy reuse by simulating a single block and replicating it
// Layers times, and the graph converter replicates it per pipeline stage.
type IterationOps struct {
	Model  Config
	TP     int // tensor-parallel degree the shapes were built for
	Layers int // transformer blocks in the model

	Embed Op   // token embedding (runs once)
	Block []Op // one transformer block's operators, in execution order
	Head  Op   // LM head (runs once, on the last token of each sequence)

	TotalNewTokens int // sum of NewTokens over the batch
	Seqs           []Seq
}

// BuildIteration constructs the operator workload for one iteration over
// the given batch. tp is the tensor-parallel degree: weight matrices and
// attention heads are partitioned tp ways, so the returned shapes describe
// the work of a single tensor-parallel worker.
func BuildIteration(cfg Config, batch []Seq, tp int) (*IterationOps, error) {
	it := &IterationOps{}
	if err := BuildIterationInto(it, cfg, batch, tp); err != nil {
		return nil, err
	}
	return it, nil
}

// BuildIterationInto is BuildIteration building into a reusable
// IterationOps: the operator and sequence storage of it is recycled, so
// iteration-driving hot loops build each batch's workload without
// allocating. On error it is left in an undefined state.
func BuildIterationInto(it *IterationOps, cfg Config, batch []Seq, tp int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := cfg.SplitTensorParallel(tp); err != nil {
		return err
	}
	if len(batch) == 0 {
		return fmt.Errorf("model: empty batch")
	}
	totalNew := 0
	for i, s := range batch {
		if s.NewTokens <= 0 {
			return fmt.Errorf("model: batch[%d] (req %d) has NewTokens=%d", i, s.ReqID, s.NewTokens)
		}
		if s.Context < 0 {
			return fmt.Errorf("model: batch[%d] (req %d) has negative context", i, s.ReqID)
		}
		if s.TotalLen() > cfg.MaxSeqLen {
			return fmt.Errorf("model: batch[%d] (req %d) length %d exceeds max %d",
				i, s.ReqID, s.TotalLen(), cfg.MaxSeqLen)
		}
		totalNew += s.NewTokens
	}

	d := cfg.DTypeBytes
	h := cfg.Hidden
	headDim := cfg.HeadDim()
	// Padded ceiling shards: every worker carries the largest share, as in
	// padded Megatron sharding of uneven head/FFN counts.
	localHeads := ceilShard(cfg.Heads, tp)
	qkvN := 3 * ceilShard(h, tp)
	projK := ceilShard(h, tp)
	ffnShard := ceilShard(cfg.FFN, tp)
	ffn1N := ffnShard
	if cfg.GatedFFN {
		ffn1N = 2 * ffnShard
	}
	vocabShard := ceilShard(cfg.Vocab, tp)
	phase := batchPhase(batch)

	// The operators are written field by field into recycled storage:
	// assigning an Op composite literal copies the 104-byte Op through
	// a temporary.
	it.Model, it.TP, it.Layers = cfg, tp, cfg.Layers
	it.TotalNewTokens = totalNew
	it.Seqs = append(it.Seqs[:0], batch...)
	it.Embed.setBatched(OpEmbed, "Embed", phase, totalNew, h, 1, 0)

	w := opWriter{ops: it.Block[:0]}
	n := 8 + 3*len(batch)
	if cfg.IsMoE() {
		n++ // the router
	}
	if cap(w.ops) < n {
		w.ops = make([]Op, 0, n)
	}
	w.batched(OpLayerNorm, "LayerNorm1", phase, totalNew, h, 1, 0)
	w.batched(OpQKVGen, "QKVGen", phase, totalNew, qkvN, h, int64(qkvN)*int64(h)*int64(d))
	// Attention core: one Score/Softmax/Attend triple per request, covering
	// this worker's localHeads heads (selective batching). The ops carry
	// the request in ReqID, so their names stay static.
	for _, s := range batch {
		ctx := s.TotalLen()
		w.attention(OpScore, "Score", phase, s, ctx, headDim, localHeads)
		w.attention(OpSoftmax, "Softmax", phase, s, ctx, 1, localHeads)
		w.attention(OpAttend, "Attend", phase, s, headDim, ctx, localHeads)
	}
	w.batched(OpProj, "Proj", phase, totalNew, h, projK, int64(h)*int64(projK)*int64(d))
	w.batched(OpResidue, "Residual1", phase, totalNew, h, 1, 0)
	w.batched(OpLayerNorm, "LayerNorm2", phase, totalNew, h, 1, 0)
	// Feed-forward: dense, or mixture-of-experts with a router GEMM and
	// TopK-activated expert FFNs (the Section V-B extension). Each token
	// is processed by TopK experts, so the FFN GEMMs widen by TopK rows;
	// weight traffic covers every *activated* expert's shard.
	ffnM := totalNew
	activeExperts := int64(1)
	if cfg.IsMoE() {
		w.batched(OpGate, "Gate", phase, totalNew, cfg.Experts, h, int64(cfg.Experts)*int64(h)*int64(d))
		ffnM = totalNew * cfg.TopK
		if totalNew*cfg.TopK < cfg.Experts {
			activeExperts = int64(totalNew * cfg.TopK)
		} else {
			activeExperts = int64(cfg.Experts)
		}
	}
	// Gated (SwiGLU) FFNs fuse the gate and up projections into one
	// doubled-width GEMM, as LLaMA deployments do.
	w.batched(OpFFN1, "FFN1", phase, ffnM, ffn1N, h, activeExperts*int64(ffn1N)*int64(h)*int64(d))
	w.batched(OpFFN2, "FFN2", phase, ffnM, h, ffnShard, activeExperts*int64(h)*int64(ffnShard)*int64(d))
	w.batched(OpResidue, "Residual2", phase, totalNew, h, 1, 0)
	it.Block = w.ops

	// LM head computes logits for the last position of each sequence only.
	it.Head.setBatched(OpLMHead, "LMHead", phase, len(batch), vocabShard, h, int64(vocabShard)*int64(h)*int64(d))
	return nil
}

// opWriter appends operators to a block, each written in place.
type opWriter struct{ ops []Op }

// next appends a zero operator and returns it.
func (w *opWriter) next() *Op {
	w.ops = append(w.ops, Op{})
	return &w.ops[len(w.ops)-1]
}

// batched appends a batch-wide operator (see setBatched).
func (w *opWriter) batched(kind OpKind, name string, phase Phase, m, n, k int, weights int64) {
	w.next().setBatched(kind, name, phase, m, n, k, weights)
}

// attention appends one of request s's attention-core operators: M is
// its new tokens, and it runs against its whole context.
func (w *opWriter) attention(kind OpKind, name string, phase Phase, s Seq, n, k, heads int) {
	o := w.next()
	o.Kind, o.Name, o.Phase = kind, name, phase
	o.M, o.N, o.K = s.NewTokens, n, k
	o.Heads, o.ReqID, o.Context = heads, s.ReqID, s.TotalLen()
}

// setBatched overwrites o with a single-head operator covering every
// request of the batch.
func (o *Op) setBatched(kind OpKind, name string, phase Phase, m, n, k int, weights int64) {
	o.Kind, o.Name, o.Phase = kind, name, phase
	o.M, o.N, o.K = m, n, k
	o.Heads, o.ReqID, o.Context = 1, -1, 0
	o.Batched, o.Weights = true, weights
}

// batchPhase labels a mixed batch: Initiation if any sequence is in its
// prompt phase (the iteration then carries prompt work), else Generation.
func batchPhase(batch []Seq) Phase {
	for _, s := range batch {
		if s.Phase == Initiation {
			return Initiation
		}
	}
	return Generation
}

// AllOps returns the full model's operators with the block replicated
// Layers times, e.g. for a no-reuse baseline that simulates every layer.
func (it *IterationOps) AllOps() []Op {
	ops := make([]Op, 0, 2+len(it.Block)*it.Layers)
	ops = append(ops, it.Embed)
	for l := 0; l < it.Layers; l++ {
		for _, op := range it.Block {
			op.Name = fmt.Sprintf("layer%d.%s", l, op.Name)
			ops = append(ops, op)
		}
	}
	ops = append(ops, it.Head)
	return ops
}

// BlockFLOPs returns the FLOPs of one transformer block.
func (it *IterationOps) BlockFLOPs() int64 {
	var total int64
	for _, op := range it.Block {
		total += op.FLOPs()
	}
	return total
}

// TotalFLOPs returns the FLOPs of the full iteration (all layers + embed +
// head) on one tensor-parallel worker.
func (it *IterationOps) TotalFLOPs() int64 {
	return it.Embed.FLOPs() + int64(it.Layers)*it.BlockFLOPs() + it.Head.FLOPs()
}

// AttentionOps returns the indices of attention-core operators within
// Block, the ops that change shape every iteration and that heterogeneous
// mappings route to PIM.
func (it *IterationOps) AttentionOps() []int {
	var idx []int
	for i, op := range it.Block {
		if op.Kind.IsAttention() {
			idx = append(idx, i)
		}
	}
	return idx
}

// NonAttentionOps returns the complementary indices of AttentionOps.
func (it *IterationOps) NonAttentionOps() []int {
	var idx []int
	for i, op := range it.Block {
		if !op.Kind.IsAttention() {
			idx = append(idx, i)
		}
	}
	return idx
}

// ContextLengths returns the sorted distinct context lengths in the batch,
// the shape dimension the attention-reuse cache is keyed by.
func (it *IterationOps) ContextLengths() []int {
	seen := map[int]bool{}
	for _, s := range it.Seqs {
		seen[s.TotalLen()] = true
	}
	out := make([]int, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}
