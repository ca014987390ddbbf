// Package pim models a processing-in-memory accelerator for memory-bound
// LLM operators, substituting for the paper's in-house PIM simulator.
//
// The device places a small MAC unit in every DRAM bank and exploits the
// aggregated internal bandwidth for GEMV-shaped work: attention Score and
// Attend in the generation phase, plus near-memory softmax. Matrix rows
// are interleaved across banks; each bank streams its rows through its
// lanes and only the reduced results cross to the host, which is what
// makes PIM effective for low-arithmetic-intensity operators (Section
// II-C).
package pim

import (
	"fmt"
	"math"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/simtime"
)

const dtypeBytes = 2

// Engine is a PIM execution engine implementing engine.Engine.
type Engine struct {
	cfg config.PIMConfig
}

var _ engine.Engine = (*Engine)(nil)

// New creates a PIM engine from the given hardware configuration.
func New(cfg config.PIMConfig) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg}, nil
}

// Config returns the engine's hardware configuration.
func (e *Engine) Config() config.PIMConfig { return e.cfg }

func (e *Engine) Name() string       { return e.cfg.Name }
func (e *Engine) Kind() engine.Kind  { return engine.PIM }
func (e *Engine) MemoryBytes() int64 { return e.cfg.MemoryBytes }

// program is a compiled PIM operator: the per-bank command stream layout.
type program struct {
	rowsPerBank   int   // matrix rows mapped to each bank
	commands      int64 // total bank commands issued
	bytesStreamed int64 // bytes read inside the memory arrays
	bytesToHost   int64 // reduced results returned over the channel
}

// Compile maps an operator onto the bank array. The mapping walk costs
// work proportional to the command count, mirroring a real PIM command
// scheduler.
func (e *Engine) Compile(op model.Op) (engine.Compiled, error) {
	if !op.Kind.IsAttention() {
		return nil, fmt.Errorf("pim: unsupported operator kind %s (%s)", op.Kind, op.Name)
	}
	if op.M <= 0 || op.N <= 0 || op.K <= 0 {
		return nil, fmt.Errorf("pim: operator %s has non-positive dims %dx%dx%d", op.Name, op.M, op.N, op.K)
	}
	p := &program{}
	heads := int64(max(op.Heads, 1))

	switch op.Kind {
	case model.OpScore, model.OpAttend:
		// The stationary matrix (K or V cache) has `rows` rows of length
		// `depth`; the vector side is broadcast.
		rows, depth := op.N, op.K
		if op.Kind == model.OpAttend {
			// Attend multiplies scores [M x K] by V [K x N]: V's K rows of
			// length N are the stationary matrix.
			rows, depth = op.K, op.N
		}
		banks := e.cfg.TotalBanks()
		p.rowsPerBank = ceilDiv(rows, banks)
		// One command per row segment per lane group.
		segs := ceilDiv(depth, e.cfg.LanesPerBank)
		p.commands = int64(p.rowsPerBank) * int64(segs) * heads * int64(op.M)
		p.bytesStreamed = heads * int64(op.M) * int64(rows) * int64(depth) * dtypeBytes
		p.bytesToHost = heads * int64(op.M) * int64(op.N) * dtypeBytes
	case model.OpSoftmax:
		elems := heads * int64(op.M) * int64(op.N)
		p.commands = ceilDiv64(elems, int64(e.cfg.LanesPerBank*e.cfg.TotalBanks())) * 3
		p.bytesStreamed = elems * dtypeBytes * 3
		p.bytesToHost = elems * dtypeBytes
	}
	return p, nil
}

// Simulate models bank-parallel execution: banks work independently; the
// op completes when the most loaded bank drains its command queue, bounded
// below by the aggregate internal bandwidth streaming cost.
func (e *Engine) Simulate(c engine.Compiled) (simtime.Duration, error) {
	p, ok := c.(*program)
	if !ok {
		return 0, fmt.Errorf("pim: foreign compiled artifact %T", c)
	}
	banks := int64(e.cfg.TotalBanks())

	// Compute side: commands are spread across banks; each command takes
	// one cycle per lane group plus issue overhead amortised per bank-group
	// burst.
	cmdsPerBank := ceilDiv64(p.commands, banks)
	computeCycles := cmdsPerBank + e.cfg.CommandCycles

	// Memory side: the internal arrays stream bytesStreamed at aggregate
	// internal bandwidth; results cross the channel interface at the same
	// external rate.
	bytesPerCycle := e.cfg.MemoryBWBytes / e.cfg.FrequencyHz
	memoryCycles := int64(math.Ceil(float64(p.bytesStreamed+p.bytesToHost) / bytesPerCycle))

	total := max(computeCycles, memoryCycles) + e.cfg.CommandCycles
	return simtime.Cycles(total, e.cfg.FrequencyHz), nil
}

func ceilDiv(a, b int) int       { return (a + b - 1) / b }
func ceilDiv64(a, b int64) int64 { return (a + b - 1) / b }
