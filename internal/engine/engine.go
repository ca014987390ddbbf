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
	"unsafe"

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
// It is opaque outside the engine that made it, and keeps only what that
// engine's Simulate reads, not the operator: a cache holds one per
// shape.
type Compiled any

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
	// Simulate executes a compiled operator and returns its latency.
	Simulate(c Compiled) (simtime.Duration, error)
	// MemoryBytes returns the device memory capacity (KV paging budget).
	MemoryBytes() int64
}

// StackStats counts a Stack's calls and cache hits per phase. A miss
// (calls minus hits) is one call into the engine; with reuse on, each
// compile miss adds a cached artifact and each simulate miss a cached
// result.
type StackStats struct {
	CompileCalls  int64
	CompileHits   int64
	SimulateCalls int64
	SimulateHits  int64
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
//
// Each shape owns one cache entry holding both phases' results, found by
// a single probe of a map keyed by the shape's 64-bit hash. A Stack is
// safe for concurrent use.
type Stack struct {
	eng   Engine
	reuse bool

	mu    sync.Mutex
	cache map[uint64]*cacheEntry // by shapeHash; equal hashes chain via next
	arena []cacheEntry           // the block new entries are carved from
	stats StackStats             // slow-path counters; fast hits are folded in by Stats

	// Double hits (both phases cached) count here only: each advances
	// every call/hit counter by one.
	hits int64
}

// cacheEntry is one shape's cached compilation and, once simulated, its
// latency. Entries never move, and once simulated is set under the
// stack's lock the latency never changes, so a caller that saw
// simulated under the lock may read it after releasing it.
type cacheEntry struct {
	key       model.ShapeID
	next      *cacheEntry // another shape with the same hash
	compiled  Compiled
	simulated bool
	latency   simtime.Duration
}

// shapeHash folds a shape into the cache's 64-bit map key. Distinct
// shapes may collide; their entries chain, so a collision costs a probe,
// never a wrong result.
func shapeHash(k model.ShapeID) uint64 {
	h := uint64(k.Kind)<<8 | uint64(k.Phase)
	for _, v := range [...]int{k.M, k.N, k.K, k.Heads, k.Context} {
		h = h*0x9E3779B97F4A7C15 + uint64(v)
	}
	return h
}

// arenaBlock is how many cache entries one arena allocation holds:
// entries never move once handed out, so the cache map holds pointers
// without a growing table being copied. A cold serving run adds
// thousands of entries (one per new attention context); a block fills
// one 16 KiB allocation, a size the allocator serves without rounding.
const arenaBlock = 16 << 10 / int(unsafe.Sizeof(cacheEntry{}))

// NewStack wraps an engine. reuse enables the compilation/simulation
// caches.
func NewStack(eng Engine, reuse bool) *Stack {
	return &Stack{eng: eng, reuse: reuse, cache: make(map[uint64]*cacheEntry)}
}

// Engine returns the wrapped engine.
func (s *Stack) Engine() Engine { return s.eng }

// lookup returns the shape's cache entry, or nil. The caller holds s.mu.
func (s *Stack) lookup(key model.ShapeID) *cacheEntry {
	e := s.cache[shapeHash(key)]
	for e != nil && e.key != key {
		e = e.next
	}
	return e
}

// hit is the double-hit fast path: with reuse on and both phases of the
// shape cached (the steady state of an iteration loop), it counts the
// hit and returns the entry, with no engine calls. It returns nil on a
// miss.
func (s *Stack) hit(key model.ShapeID) *cacheEntry {
	if !s.reuse {
		return nil
	}
	s.mu.Lock()
	e := s.lookup(key)
	if e == nil || !e.simulated {
		s.mu.Unlock()
		return nil
	}
	s.hits++
	s.mu.Unlock()
	return e
}

// RunLatency compiles and simulates one operator, consulting the
// caches, and returns its simulated latency. The cached fast path is
// one map probe. op is only read.
func (s *Stack) RunLatency(op *model.Op) (simtime.Duration, error) {
	key := op.ShapeID()
	if e := s.hit(key); e != nil {
		return e.latency, nil
	}
	return s.runSlow(op, key)
}

// entry returns the shape's cache entry, adding an empty one if needed.
// The caller holds s.mu.
func (s *Stack) entry(key model.ShapeID) *cacheEntry {
	if e := s.lookup(key); e != nil {
		return e
	}
	if len(s.arena) == cap(s.arena) {
		s.arena = make([]cacheEntry, 0, arenaBlock)
	}
	h := shapeHash(key)
	s.arena = append(s.arena, cacheEntry{key: key, next: s.cache[h]})
	e := &s.arena[len(s.arena)-1]
	s.cache[h] = e
	return e
}

// opLabel names an operator in an error: per-request ops share a static
// name, so the owning request is added from ReqID.
func opLabel(op *model.Op) string {
	if op.ReqID < 0 {
		return op.Name
	}
	return fmt.Sprintf("%s (request %d)", op.Name, op.ReqID)
}

// runSlow is the cache-missing path of RunLatency. With reuse on it
// finds or adds the shape's entry once; entries never move, so later
// steps use it under the lock without probing the map again.
func (s *Stack) runSlow(op *model.Op, key model.ShapeID) (simtime.Duration, error) {
	var e *cacheEntry // nil without reuse
	var c Compiled
	s.mu.Lock()
	s.stats.CompileCalls++
	if s.reuse {
		e = s.entry(key)
		if c = e.compiled; c != nil {
			s.stats.CompileHits++
		}
	}
	s.mu.Unlock()

	if c == nil {
		var err error
		if c, err = s.eng.Compile(*op); err != nil {
			return 0, fmt.Errorf("engine %s: compiling %s: %w", s.eng.Name(), opLabel(op), err)
		}
		s.mu.Lock()
		if e != nil {
			e.compiled = c
		}
	} else {
		s.mu.Lock()
	}
	s.stats.SimulateCalls++
	if e != nil && e.simulated {
		s.stats.SimulateHits++
		s.mu.Unlock()
		return e.latency, nil
	}
	s.mu.Unlock()

	lat, err := s.eng.Simulate(c)
	if err != nil {
		return 0, fmt.Errorf("engine %s: simulating %s: %w", s.eng.Name(), opLabel(op), err)
	}
	// A concurrent miss on the same shape may have stored it first;
	// stored results are never rewritten.
	if e != nil {
		s.mu.Lock()
		if !e.simulated {
			e.simulated, e.latency = true, lat
		}
		s.mu.Unlock()
	}
	return lat, nil
}

// foldHits adds n double hits counted by a Memo.
func (s *Stack) foldHits(n int64) {
	s.mu.Lock()
	s.hits += n
	s.mu.Unlock()
}

// Stats returns a snapshot of the stack's instrumentation.
func (s *Stack) Stats() StackStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.CompileCalls += s.hits
	st.CompileHits += s.hits
	st.SimulateCalls += s.hits
	st.SimulateHits += s.hits
	return st
}

// ResetStats zeroes the instrumentation counters (the caches persist).
func (s *Stack) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats, s.hits = StackStats{}, 0
}
