// Package npu models a systolic-array NPU with a full compiler-and-
// simulator stack, substituting for the GeneSys simulator and PolyMath
// compiler used by the paper.
//
// The compiler lowers each operator into a tiled device schedule sized to
// the on-chip scratchpad; the simulator replays the schedule tile by tile
// through a double-buffered load/compute/store pipeline against the DRAM
// bandwidth model. Both phases do work proportional to the tile count, so
// skipping them via the reuse caches yields the same class of speedup the
// paper reports.
package npu

import (
	"fmt"
	"math"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/simtime"
)

// dtypeBytes is the element width the engine assumes (fp16 throughout the
// paper's evaluation).
const dtypeBytes = 2

// Engine is a systolic-array NPU execution engine implementing
// engine.Engine.
type Engine struct {
	cfg config.NPUConfig
}

var _ engine.Engine = (*Engine)(nil)

// New creates an NPU engine from the given hardware configuration.
func New(cfg config.NPUConfig) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg}, nil
}

// Config returns the engine's hardware configuration.
func (e *Engine) Config() config.NPUConfig { return e.cfg }

func (e *Engine) Name() string       { return e.cfg.Name }
func (e *Engine) Kind() engine.Kind  { return engine.NPU }
func (e *Engine) MemoryBytes() int64 { return e.cfg.MemoryBytes }

// kernelClass selects the execution resource for an operator.
type kernelClass int

const (
	kernelGEMM   kernelClass = iota // systolic array
	kernelVector                    // vector unit
	kernelMemory                    // pure data movement (embedding gather)
)

// schedule is a compiled operator: the tiled loop nest the simulator
// replays. It is immutable after compilation and safe to share.
type schedule struct {
	kind    model.OpKind
	m, n, k int // operator dims
	class   kernelClass

	// GEMM tiling (per head repetition).
	tileM, tileN, tileK int
	nM, nN, nK          int
	repeats             int // head count

	// Vector/memory sizing.
	elements int64

	// Compile-time instruction statistics (the compiler's output).
	instructions int64
	tileCount    int64
}

// Compile lowers an operator into a tiled schedule. The tiling walk is the
// genuine compile cost: it visits every tile of the loop nest to emit its
// instruction stream, exactly the work model-redundancy reuse avoids for
// repeated transformer blocks.
func (e *Engine) Compile(op model.Op) (engine.Compiled, error) {
	if op.M <= 0 || op.N <= 0 || op.K <= 0 {
		return nil, fmt.Errorf("npu: operator %s has non-positive dims %dx%dx%d", op.Name, op.M, op.N, op.K)
	}
	s := &schedule{kind: op.Kind, m: op.M, n: op.N, k: op.K, repeats: max(op.Heads, 1)}
	switch {
	case op.Kind == model.OpEmbed:
		s.class = kernelMemory
		s.elements = int64(op.M) * int64(op.N)
		s.instructions = ceilDiv64(s.elements, int64(e.cfg.VectorLanes))
		s.tileCount = 1
	case op.Kind.IsGEMM() || op.Kind == model.OpScore || op.Kind == model.OpAttend:
		s.class = kernelGEMM
		e.tileGEMM(s)
	default:
		s.class = kernelVector
		s.elements = int64(s.repeats) * int64(op.M) * int64(op.N)
		// The vector unit processes lanes-wide strips; the compiler emits
		// one instruction bundle per strip per pass.
		strips := ceilDiv64(s.elements, int64(e.cfg.VectorLanes))
		s.instructions = strips * int64(vectorPasses(op.Kind))
		s.tileCount = strips
	}
	return s, nil
}

// tileGEMM chooses tile sizes that double-buffer in the scratchpad and
// walks the resulting loop nest.
func (e *Engine) tileGEMM(s *schedule) {
	s.tileM = min(s.m, e.cfg.SystolicRows)
	s.tileN = min(s.n, e.cfg.SystolicCols)

	// Pick the largest tileK such that double-buffered A, B and C tiles
	// fit in the scratchpad: 2*(tileM*tileK + tileK*tileN + tileM*tileN)
	// elements.
	budget := e.cfg.SRAMBytes / int64(dtypeBytes)
	fixed := 2 * int64(s.tileM) * int64(s.tileN)
	perK := 2 * (int64(s.tileM) + int64(s.tileN))
	tileK := int((budget - fixed) / perK)
	if tileK < 1 {
		tileK = 1
	}
	if tileK > s.k {
		tileK = s.k
	}
	// Align the K tile to the systolic row count when possible so weight
	// loads map onto full PE columns.
	if tileK > e.cfg.SystolicRows {
		tileK -= tileK % e.cfg.SystolicRows
	}
	s.tileK = tileK
	s.nM = ceilDiv(s.m, s.tileM)
	s.nN = ceilDiv(s.n, s.tileN)
	s.nK = ceilDiv(s.k, s.tileK)

	// Emit the instruction stream: the compiler walks every tile of one
	// head's loop nest (heads repeat the identical program).
	var instr int64
	for m := 0; m < s.nM; m++ {
		for n := 0; n < s.nN; n++ {
			for k := 0; k < s.nK; k++ {
				// Load A-tile, load B-tile, systolic-execute, and on the
				// final K step an accumulate-store of the C-tile.
				instr += 3
				if k == s.nK-1 {
					instr++
				}
			}
		}
	}
	s.instructions = instr * int64(s.repeats)
	s.tileCount = int64(s.nM) * int64(s.nN) * int64(s.nK) * int64(s.repeats)
}

// vectorPasses returns how many read/write passes over the data the vector
// unit needs for an elementwise operator.
func vectorPasses(k model.OpKind) int {
	switch k {
	case model.OpLayerNorm:
		return 3 // mean, variance, normalise+affine
	case model.OpSoftmax:
		return 3 // max, exp+sum, divide
	default:
		return 1
	}
}

// Simulate replays a compiled schedule through the device pipeline and
// returns its latency.
func (e *Engine) Simulate(c engine.Compiled) (simtime.Duration, error) {
	s, ok := c.(*schedule)
	if !ok {
		return 0, fmt.Errorf("npu: foreign compiled artifact %T", c)
	}
	switch s.class {
	case kernelGEMM:
		return e.simulateGEMM(s), nil
	case kernelVector:
		return e.simulateVector(s), nil
	case kernelMemory:
		return e.simulateMemory(s), nil
	default:
		return 0, fmt.Errorf("npu: unknown kernel class %d", s.class)
	}
}

// simulateGEMM models a double-buffered tile pipeline: while one tile
// group computes, the next loads; a group's wall time is max(load,
// compute), with the first load exposed and output stores sharing the
// memory port.
//
// Tile packing: when M is smaller than the systolic rows (the generation
// phase's skinny GEMMs), the compiler packs floor(rows/tileM) independent
// N-tiles onto the idle rows so they stream their K-slices concurrently —
// without packing a single-token GEMV would serialise one column tile at
// a time and waste the array. Packed skinny GEMMs become weight-streaming
// (memory) bound, the regime the roofline analysis of Fig. 2(b) shows.
//
// The walk visits every tile, so simulation cost scales with model size
// like a conventional NPU simulator's.
func (e *Engine) simulateGEMM(s *schedule) simtime.Duration {
	bytesPerCycle := e.cfg.MemoryBWBytes / e.cfg.FrequencyHz

	conc := e.cfg.SystolicRows / s.tileM
	if conc < 1 {
		conc = 1
	}

	var busyCycles int64
	// Fill latency of the systolic array for one tile wave.
	fill := int64(e.cfg.SystolicRows + e.cfg.SystolicCols)

	for m := 0; m < s.nM; m++ {
		curM := tileSpan(s.m, s.tileM, m)
		for n0 := 0; n0 < s.nN; n0 += conc {
			g := conc
			if n0+g > s.nN {
				g = s.nN - n0
			}
			// Bytes for this packed group: the A-tile once plus each
			// member's B-tile and (on the last K step) C-tile store.
			var groupN int64
			for n := n0; n < n0+g; n++ {
				groupN += int64(tileSpan(s.n, s.tileN, n))
			}
			for k := 0; k < s.nK; k++ {
				curK := tileSpan(s.k, s.tileK, k)

				loadBytes := int64(curM)*int64(curK)*dtypeBytes + int64(curK)*groupN*dtypeBytes
				loadCycles := int64(math.Ceil(float64(loadBytes) / bytesPerCycle))
				// The packed group streams curK elements through the
				// array in lockstep; compute time depends on curK plus
				// the fill, regardless of how many tiles are packed.
				computeCycles := int64(curK) + fill

				busyCycles += max(loadCycles, computeCycles)

				if k == s.nK-1 {
					storeBytes := int64(curM) * groupN * dtypeBytes
					storeCycles := int64(math.Ceil(float64(storeBytes) / bytesPerCycle))
					if storeCycles > computeCycles {
						busyCycles += storeCycles - computeCycles
					}
				}
			}
		}
	}
	// Pipeline priming: the very first tile's load is exposed (nothing to
	// overlap with). One tile, not a packed group — packed members stream
	// in behind the first while it computes.
	firstK := min(s.k, s.tileK)
	firstBytes := int64(min(s.m, s.tileM))*int64(firstK)*dtypeBytes +
		int64(firstK)*int64(min(s.n, s.tileN))*dtypeBytes
	firstLoad := int64(math.Ceil(float64(firstBytes) / bytesPerCycle))
	total := (busyCycles+firstLoad)*int64(s.repeats) + e.cfg.OpOverheadCycles
	return simtime.Cycles(total, e.cfg.FrequencyHz)
}

// simulateVector models the vector unit: strip-mined elementwise passes
// bounded by either lane throughput or memory bandwidth.
func (e *Engine) simulateVector(s *schedule) simtime.Duration {
	bytesPerCycle := e.cfg.MemoryBWBytes / e.cfg.FrequencyHz
	passes := int64(vectorPasses(s.kind))

	computeCycles := ceilDiv64(s.elements, int64(e.cfg.VectorLanes)) * passes
	// Each pass streams the operand in and the final pass writes back.
	bytes := s.elements * dtypeBytes * (passes + 1)
	memoryCycles := int64(math.Ceil(float64(bytes) / bytesPerCycle))

	total := max(computeCycles, memoryCycles) + e.cfg.OpOverheadCycles
	return simtime.Cycles(total, e.cfg.FrequencyHz)
}

// simulateMemory models pure data movement (embedding gather).
func (e *Engine) simulateMemory(s *schedule) simtime.Duration {
	bytes := s.elements * dtypeBytes
	cycles := int64(math.Ceil(float64(bytes)/(e.cfg.MemoryBWBytes/e.cfg.FrequencyHz))) + e.cfg.OpOverheadCycles
	return simtime.Cycles(cycles, e.cfg.FrequencyHz)
}

// TileCount reports the tile count of a compiled artifact; the baseline
// simulator drivers use it to scale their extra per-tile work.
func TileCount(c engine.Compiled) int64 {
	if s, ok := c.(*schedule); ok {
		return s.tileCount
	}
	return 0
}

// Instructions reports the compiled instruction count of an artifact.
func Instructions(c engine.Compiled) int64 {
	if s, ok := c.(*schedule); ok {
		return s.instructions
	}
	return 0
}

// tileSpan returns the extent of tile index i when dim is split into tiles
// of size tile.
func tileSpan(dim, tile, i int) int {
	remain := dim - i*tile
	if remain > tile {
		return tile
	}
	return remain
}

func ceilDiv(a, b int) int       { return (a + b - 1) / b }
func ceilDiv64(a, b int64) int64 { return (a + b - 1) / b }
