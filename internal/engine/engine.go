// Package engine defines the execution-engine plugin interface of the
// simulator and the result-reuse machinery built around it.
//
// An execution engine is a compiler-and-simulator stack for one accelerator
// type (the paper prototypes with the GeneSys NPU stack and an in-house PIM
// simulator). LLMServingSim treats engines as plugins: anything that can
// compile an operator into a device schedule and report its simulated
// latency can participate in system simulation. The Stack wrapper adds the
// paper's two speed techniques: model-redundancy reuse (identical operator
// shapes across transformer blocks compile once) and computation reuse
// (compilation and simulation results are cached across iterations).
package engine

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/simtime"
)

// Kind labels the accelerator class an engine models.
type Kind int

const (
	NPU Kind = iota
	PIM
	GPU

	// NumKinds counts the accelerator classes, for arrays indexed by Kind.
	NumKinds
)

func (k Kind) String() string {
	switch k {
	case NPU:
		return "npu"
	case PIM:
		return "pim"
	case GPU:
		return "gpu"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Compiled is an operator lowered onto a specific engine: the device
// schedule (tiling, bank mapping, kernel choice) that simulation replays.
type Compiled interface {
	// Key canonically identifies the compiled artifact for caching.
	Key() string
	// Op returns the operator the artifact was compiled from.
	Op() model.Op
}

// Result is the simulated execution of one compiled operator.
type Result struct {
	Op            model.Op
	Latency       simtime.Duration
	ComputeCycles int64 // cycles the compute resource was busy
	MemoryCycles  int64 // cycles the memory system was busy
	BytesMoved    int64
	Bound         string // "compute" or "memory": the roofline side that dominated
}

// Engine is a compiler-and-simulator stack for one accelerator type.
// Implementations must be safe for concurrent use.
type Engine interface {
	// Name identifies the engine instance (e.g. "genesys-128x128").
	Name() string
	// Kind reports the accelerator class.
	Kind() Kind
	// Compile lowers an operator into a device schedule. This is the
	// expensive front-end phase that model-redundancy reuse skips.
	Compile(op model.Op) (Compiled, error)
	// Simulate executes a compiled operator and reports its latency.
	Simulate(c Compiled) (Result, error)
	// Supports reports whether the engine can execute the operator kind;
	// the operator-mapping strategies consult it.
	Supports(kind model.OpKind) bool
	// MemoryBytes returns the device memory capacity (KV paging budget).
	MemoryBytes() int64
	// MemoryBandwidth returns the device memory bandwidth in bytes/sec.
	MemoryBandwidth() float64
	// PeakFLOPs returns the peak compute rate in FLOP/s (roofline roof).
	PeakFLOPs() float64
}

// StackStats instruments a Stack: cache effectiveness and the host
// wall-clock cost of each phase (the paper's "simulation time" metric,
// Figs. 8-10, and the execution-engine bar of the Fig. 9 breakdown).
type StackStats struct {
	CompileCalls  int64
	CompileHits   int64
	SimulateCalls int64
	SimulateHits  int64
	CompileHost   time.Duration // host time spent inside Compile
	SimulateHost  time.Duration // host time spent inside Simulate
	OpsSimulated  int64
	SimulatedBusy simtime.Duration // total simulated device-busy time
}

// HitRate returns the combined cache hit rate across both phases.
func (s StackStats) HitRate() float64 {
	total := s.CompileCalls + s.SimulateCalls
	if total == 0 {
		return 0
	}
	return float64(s.CompileHits+s.SimulateHits) / float64(total)
}

// Stack wraps an Engine with the paper's result-reuse caches.
//
// With reuse enabled, compilation results are cached by operator shape so
// that the repeated transformer blocks of an LLM compile exactly once
// (model-redundancy reuse), and simulation results are cached so that
// iterations re-simulate only the attention operators whose context length
// changed (computation reuse). With reuse disabled, every call re-runs the
// engine, reproducing the behaviour of conventional per-layer simulators.
type Stack struct {
	eng   Engine
	reuse bool

	mu       sync.Mutex
	compiled map[model.ShapeID]Compiled
	results  map[model.ShapeID]Result
	stats    StackStats
}

// NewStack wraps an engine. reuse enables the compilation/simulation
// caches.
func NewStack(eng Engine, reuse bool) *Stack {
	return &Stack{
		eng:      eng,
		reuse:    reuse,
		compiled: make(map[model.ShapeID]Compiled),
		results:  make(map[model.ShapeID]Result),
	}
}

// Engine returns the wrapped engine.
func (s *Stack) Engine() Engine { return s.eng }

// ReuseEnabled reports whether result reuse is on.
func (s *Stack) ReuseEnabled() bool { return s.reuse }

// tryCached is the double-hit fast path: with reuse on and both phases
// cached (the steady state of an iteration loop), it advances all the
// counters in one critical section and returns the cached result with
// no engine calls.
func (s *Stack) tryCached(key model.ShapeID) (Result, bool) {
	if !s.reuse {
		return Result{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.results[key]
	if !ok {
		return Result{}, false
	}
	if _, compiled := s.compiled[key]; !compiled {
		return Result{}, false
	}
	s.stats.CompileCalls++
	s.stats.CompileHits++
	s.stats.SimulateCalls++
	s.stats.SimulateHits++
	s.stats.OpsSimulated++
	s.stats.SimulatedBusy += r.Latency
	return r, true
}

// Run compiles and simulates one operator, consulting the caches.
func (s *Stack) Run(op model.Op) (Result, error) {
	key := op.ShapeID()
	if r, ok := s.tryCached(key); ok {
		// Return the cached latency under the caller's op identity.
		r.Op = op
		return r, nil
	}
	return s.runSlow(op, key)
}

// runSlow is the cache-missing path of Run.
func (s *Stack) runSlow(op model.Op, key model.ShapeID) (Result, error) {
	s.mu.Lock()
	s.stats.CompileCalls++
	c, haveCompiled := s.compiled[key]
	if haveCompiled && s.reuse {
		s.stats.CompileHits++
	}
	s.mu.Unlock()

	if !haveCompiled || !s.reuse {
		start := time.Now()
		var err error
		c, err = s.eng.Compile(op)
		elapsed := time.Since(start)
		if err != nil {
			return Result{}, fmt.Errorf("engine %s: compiling %s: %w", s.eng.Name(), op.Name, err)
		}
		s.mu.Lock()
		s.stats.CompileHost += elapsed
		if s.reuse {
			s.compiled[key] = c
		}
		s.mu.Unlock()
	}

	s.mu.Lock()
	s.stats.SimulateCalls++
	r, haveResult := s.results[key]
	if haveResult && s.reuse {
		s.stats.SimulateHits++
		s.stats.OpsSimulated++
		s.stats.SimulatedBusy += r.Latency
		s.mu.Unlock()
		// Return the cached latency under the caller's op identity.
		r.Op = op
		return r, nil
	}
	s.mu.Unlock()

	start := time.Now()
	r, err := s.eng.Simulate(c)
	elapsed := time.Since(start)
	if err != nil {
		return Result{}, fmt.Errorf("engine %s: simulating %s: %w", s.eng.Name(), op.Name, err)
	}
	s.mu.Lock()
	s.stats.SimulateHost += elapsed
	s.stats.OpsSimulated++
	s.stats.SimulatedBusy += r.Latency
	if s.reuse {
		s.results[key] = r
	}
	s.mu.Unlock()
	r.Op = op
	return r, nil
}

// RunLatency is Run for hot loops that need only the simulated latency:
// the cached fast path returns without copying the full Result (whose
// embedded Op makes the copy measurable at one call per operator per
// iteration). Counters advance exactly as in Run.
func (s *Stack) RunLatency(op model.Op) (simtime.Duration, error) {
	key := op.ShapeID()
	if r, ok := s.tryCached(key); ok {
		return r.Latency, nil
	}
	r, err := s.runSlow(op, key)
	return r.Latency, err
}

// Stats returns a snapshot of the stack's instrumentation.
func (s *Stack) Stats() StackStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetStats zeroes the instrumentation counters (the caches persist).
func (s *Stack) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = StackStats{}
}

// ClearCaches drops all cached compilation and simulation results, e.g.
// to model a cold simulator start (the Figs. 8 and 10 "no cached results"
// condition).
func (s *Stack) ClearCaches() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.compiled = make(map[model.ShapeID]Compiled)
	s.results = make(map[model.ShapeID]Result)
}

// CacheSizes returns the number of cached compiled artifacts and results.
func (s *Stack) CacheSizes() (compiled, results int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.compiled), len(s.results)
}
