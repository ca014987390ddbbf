package model

import "fmt"

// Phase distinguishes the two inference phases of a decoder LLM.
type Phase int

const (
	// Initiation processes the whole prompt at once (GEMM-dominated).
	Initiation Phase = iota
	// Generation produces one token per iteration against the KV cache
	// (GEMV-dominated attention).
	Generation
)

func (p Phase) String() string {
	switch p {
	case Initiation:
		return "initiation"
	case Generation:
		return "generation"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// OpKind identifies an operator class within a transformer block.
type OpKind int

const (
	OpLayerNorm OpKind = iota
	OpQKVGen           // fused Q,K,V projection GEMM
	OpScore            // Q x K^T attention score (GEMV in generation)
	OpSoftmax
	OpAttend  // score x V (GEMV in generation)
	OpProj    // attention output projection GEMM
	OpFFN1    // feed-forward up projection GEMM
	OpFFN2    // feed-forward down projection GEMM
	OpEmbed   // token embedding gather
	OpLMHead  // final vocabulary projection GEMM
	OpResidue // residual add (elementwise)
	OpGate    // mixture-of-experts router GEMM
	numOpKinds
)

var opKindNames = [...]string{
	OpLayerNorm: "LayerNorm",
	OpQKVGen:    "QKVGen",
	OpScore:     "Score",
	OpSoftmax:   "Softmax",
	OpAttend:    "Attend",
	OpProj:      "Proj",
	OpFFN1:      "FFN1",
	OpFFN2:      "FFN2",
	OpEmbed:     "Embed",
	OpLMHead:    "LMHead",
	OpResidue:   "Residual",
	OpGate:      "Gate",
}

func (k OpKind) String() string {
	if k >= 0 && int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// IsAttention reports whether the operator belongs to the multi-head
// attention core whose cost depends on the per-request context length.
// These are the operators the paper's computation-reuse strategy treats
// separately from the shape-stable non-attention layers, and the operators
// a heterogeneous mapping sends to PIM.
func (k OpKind) IsAttention() bool {
	return k == OpScore || k == OpSoftmax || k == OpAttend
}

// IsGEMM reports whether the operator is a dense matrix multiply against
// model weights (compute-bound in both phases when batched).
func (k OpKind) IsGEMM() bool {
	switch k {
	case OpQKVGen, OpProj, OpFFN1, OpFFN2, OpLMHead, OpGate:
		return true
	}
	return false
}

// Op describes one operator instance to be simulated: a matrix
// multiplication (M x K) x (K x N) or an elementwise/vector operator with
// equivalent dimensions, plus its data-movement footprint.
//
// Heads > 1 means the operator is repeated independently per attention
// head (Score/Attend/Softmax); the dims are then per-head.
type Op struct {
	Kind  OpKind
	Name  string // human-readable, e.g. "layer0.QKVGen"
	Phase Phase

	M, N, K int   // GEMM dimensions; elementwise ops use M x N with K=1
	Heads   int   // independent per-head repetitions (1 for non-attention)
	ReqID   int   // owning request for per-request ops, -1 for batched ops
	Context int   // context length attention runs against (0 otherwise)
	Batched bool  // true if the op covers all requests in the batch
	Weights int64 // bytes of model weights streamed by the op
}

// FLOPs returns the floating-point operations the op performs.
func (o Op) FLOPs() int64 {
	h := int64(max(o.Heads, 1))
	m, n, k := int64(o.M), int64(o.N), int64(o.K)
	switch o.Kind {
	case OpSoftmax:
		// exp + sum + divide ~ 5 flops per element.
		return h * m * n * 5
	case OpLayerNorm:
		// mean, variance, normalise, scale+shift ~ 8 flops per element.
		return h * m * n * 8
	case OpResidue, OpEmbed:
		return h * m * n
	default:
		return h * 2 * m * n * k
	}
}

// InputBytes returns the activation bytes the op reads (excluding weights).
func (o Op) InputBytes(dtypeBytes int) int64 {
	h := int64(max(o.Heads, 1))
	m, n, k := int64(o.M), int64(o.N), int64(o.K)
	d := int64(dtypeBytes)
	switch o.Kind {
	case OpSoftmax, OpLayerNorm, OpResidue:
		return h * m * n * d
	case OpScore:
		// Q activations (m x k) plus cached K (n x k) read from KV cache.
		return h * (m*k + n*k) * d
	case OpAttend:
		// Scores (m x k) plus cached V (k x n).
		return h * (m*k + k*n) * d
	case OpEmbed:
		return m * d * 4 // token ids (int32)
	default:
		return h * m * k * d
	}
}

// OutputBytes returns the activation bytes the op writes.
func (o Op) OutputBytes(dtypeBytes int) int64 {
	h := int64(max(o.Heads, 1))
	return h * int64(o.M) * int64(o.N) * int64(dtypeBytes)
}

// TotalBytes returns all bytes moved: weights + inputs + outputs.
func (o Op) TotalBytes(dtypeBytes int) int64 {
	return o.Weights + o.InputBytes(dtypeBytes) + o.OutputBytes(dtypeBytes)
}

// ArithmeticIntensity returns FLOPs per byte moved, the roofline x-axis
// (Fig. 2b).
func (o Op) ArithmeticIntensity(dtypeBytes int) float64 {
	b := o.TotalBytes(dtypeBytes)
	if b == 0 {
		return 0
	}
	return float64(o.FLOPs()) / float64(b)
}

// ShapeID is an op's caching identity: two ops with equal IDs have
// identical simulated cost on a given engine. It deliberately excludes
// ReqID and Name so the computation-reuse cache hits across layers,
// iterations, and requests, and it is a comparable value struct so
// hot-loop result caches key on it without building a string.
type ShapeID struct {
	Kind    OpKind
	Phase   Phase
	M, N, K int
	Heads   int
	Context int
}

// ShapeID returns the op's caching identity. It has a pointer receiver
// because hot loops call it on every priced operator and Op is large.
func (o *Op) ShapeID() ShapeID {
	return ShapeID{Kind: o.Kind, Phase: o.Phase, M: o.M, N: o.N, K: o.K, Heads: o.Heads, Context: o.Context}
}
