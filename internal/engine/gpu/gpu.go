// Package gpu models a GPU with vLLM-style fused kernels. It serves as the
// independent reference system for simulator validation: the paper
// validates LLMServingSim against a real 4x RTX 3090 vLLM deployment
// (Fig. 6), and this roofline-based kernel model plays that role here (see
// DESIGN.md's substitution table).
//
// The model intentionally shares no cost-model code with the NPU engine:
// GEMMs run at a measured fraction of tensor-core peak, attention uses
// FlashAttention-style fused kernels that never materialise the score
// matrix, and every kernel pays a CUDA launch overhead. These are the
// kernel-level effects the paper names when explaining the residual gap
// between LLMServingSim and vLLM.
package gpu

import (
	"fmt"
	"math"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/simtime"
)

const dtypeBytes = 2

// Engine is a GPU reference engine implementing engine.Engine.
type Engine struct {
	cfg config.GPUConfig
}

var _ engine.Engine = (*Engine)(nil)

// New creates a GPU engine from the given hardware configuration.
func New(cfg config.GPUConfig) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg}, nil
}

// Config returns the engine's hardware configuration.
func (e *Engine) Config() config.GPUConfig { return e.cfg }

func (e *Engine) Name() string       { return e.cfg.Name }
func (e *Engine) Kind() engine.Kind  { return engine.GPU }
func (e *Engine) MemoryBytes() int64 { return e.cfg.MemoryBytes }

// kernel is a compiled GPU operator: the fused kernel choice and its
// roofline inputs.
type kernel struct {
	flops int64
	bytes int64
	eff   float64 // fraction of peak compute this kernel achieves
}

// Compile selects the kernel and computes its roofline inputs.
func (e *Engine) Compile(op model.Op) (engine.Compiled, error) {
	if op.M <= 0 || op.N <= 0 || op.K <= 0 {
		return nil, fmt.Errorf("gpu: operator %s has non-positive dims %dx%dx%d", op.Name, op.M, op.N, op.K)
	}
	k := &kernel{flops: op.FLOPs()}
	k.bytes = op.TotalBytes(dtypeBytes)
	switch {
	case op.Kind.IsAttention() && e.cfg.FlashAttention:
		// FlashAttention fuses Score/Softmax/Attend and never writes the
		// S matrix to HBM: traffic is Q, K, V and the output only.
		heads := int64(max(op.Heads, 1))
		d := int64(dtypeBytes)
		q := heads * int64(op.M) * int64(min(op.K, op.N)) * d
		kv := 2 * heads * int64(op.Context) * int64(min(op.K, op.N)) * d
		out := heads * int64(op.M) * int64(min(op.K, op.N)) * d
		k.bytes = q + kv + out
		k.eff = kernelEfficiency(op)
	case op.Kind.IsAttention():
		// Unfused attention: materialises the score matrix and runs the
		// batched-GEMM kernels at GEMM efficiency.
		k.eff = e.cfg.GEMMEfficiency * gemmShapeEfficiency(op)
	case op.Kind.IsGEMM():
		k.eff = e.cfg.GEMMEfficiency * gemmShapeEfficiency(op)
	default:
		k.eff = 1 // elementwise kernels are purely bandwidth-bound anyway
	}
	return k, nil
}

// gemmShapeEfficiency degrades GEMM efficiency for skinny shapes that
// cannot fill the tensor cores (M < tile quantum), the regime generation-
// phase projections live in.
func gemmShapeEfficiency(op model.Op) float64 {
	const tileQuantum = 64.0
	m := float64(op.M)
	if m >= tileQuantum {
		return 1
	}
	// Linear ramp with a floor: skinny GEMMs lose compute efficiency until
	// the kernel becomes bandwidth-bound streaming weights — a GEMV always
	// runs at HBM rate, never below it.
	return math.Max(m/tileQuantum, 4.0/tileQuantum)
}

// kernelEfficiency is the fused attention kernel's compute efficiency.
func kernelEfficiency(op model.Op) float64 {
	if op.M == 1 {
		return 0.08 // decode attention: GEMV, deeply memory bound
	}
	return 0.5 // prefill FlashAttention sustains ~half of tensor-core peak
}

// Simulate evaluates the kernel roofline: latency is the max of compute
// time at effective throughput and memory time at HBM bandwidth, plus the
// launch overhead.
func (e *Engine) Simulate(c engine.Compiled) (simtime.Duration, error) {
	k, ok := c.(*kernel)
	if !ok {
		return 0, fmt.Errorf("gpu: foreign compiled artifact %T", c)
	}
	computeSec := float64(k.flops) / (e.cfg.PeakFLOPs * k.eff)
	memorySec := float64(k.bytes) / e.cfg.MemoryBWBytes
	launch := e.cfg.KernelLaunchUs * 1e-6

	return simtime.FromSeconds(math.Max(computeSec, memorySec) + launch), nil
}
