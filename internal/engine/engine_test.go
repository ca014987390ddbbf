package engine_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/engine/npu"
	"repro/internal/model"
)

func newStack(t *testing.T, reuse bool) *engine.Stack {
	t.Helper()
	eng, err := npu.New(config.DefaultNPU())
	if err != nil {
		t.Fatal(err)
	}
	return engine.NewStack(eng, reuse)
}

func gemmOp(m int) model.Op {
	return model.Op{
		Kind: model.OpQKVGen, Name: "QKVGen", Phase: model.Initiation,
		M: m, N: 256, K: 256, Heads: 1, ReqID: -1, Batched: true,
		Weights: 256 * 256 * 2,
	}
}

// TestComputationReuse verifies the paper's core optimisation: repeated
// shapes compile and simulate once, later calls hit the caches, and cached
// results are bit-identical to fresh ones.
func TestComputationReuse(t *testing.T) {
	s := newStack(t, true)
	op := gemmOp(64)

	first, err := s.RunLatency(&op)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.RunLatency(&op)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("cached latency %v differs from fresh %v", second, first)
	}
	st := s.Stats()
	if st.CompileCalls != 2 || st.CompileHits != 1 {
		t.Fatalf("compile calls/hits = %d/%d", st.CompileCalls, st.CompileHits)
	}
	if st.SimulateCalls != 2 || st.SimulateHits != 1 {
		t.Fatalf("simulate calls/hits = %d/%d", st.SimulateCalls, st.SimulateHits)
	}
	if c, r := st.CompileCalls-st.CompileHits, st.SimulateCalls-st.SimulateHits; c != 1 || r != 1 {
		t.Fatalf("compiled %d shapes and simulated %d, want 1 each", c, r)
	}
}

// TestReuseAcrossRequests: attention ops of different requests with the
// same context share a cache entry (the key excludes ReqID).
func TestReuseAcrossRequests(t *testing.T) {
	s := newStack(t, true)
	a := model.Op{Kind: model.OpScore, Name: "Score.r0", M: 1, N: 65, K: 128, Heads: 8, ReqID: 0, Context: 65}
	b := a
	b.Name, b.ReqID = "Score.r7", 7
	if _, err := s.RunLatency(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunLatency(&b); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.SimulateHits != 1 {
		t.Fatalf("expected cross-request cache hit, stats %+v", st)
	}
}

// TestErrorNamesRequest: per-request attention ops share a static name,
// so a failing one is identified in the error by its ReqID; a batched
// op is named alone.
func TestErrorNamesRequest(t *testing.T) {
	s := newStack(t, true)
	bad := model.Op{Kind: model.OpScore, Name: "Score", Phase: model.Generation, M: 1, N: 0, K: 128, Heads: 8, ReqID: 7}
	if _, err := s.RunLatency(&bad); err == nil || !strings.Contains(err.Error(), "Score (request 7)") {
		t.Fatalf("RunLatency error %v does not name request 7", err)
	}
	batched := gemmOp(0)
	if _, err := s.RunLatency(&batched); err == nil || strings.Contains(err.Error(), "request") {
		t.Fatalf("batched op error %v", err)
	}
}

func TestNoReuseRecomputes(t *testing.T) {
	s := newStack(t, false)
	op := gemmOp(64)
	for i := 0; i < 3; i++ {
		if _, err := s.RunLatency(&op); err != nil {
			t.Fatal(err)
		}
	}
	// Every call misses both phases: the stack keeps nothing.
	if st := s.Stats(); st.CompileCalls != 3 || st.SimulateCalls != 3 || st.CompileHits != 0 || st.SimulateHits != 0 {
		t.Fatalf("no-reuse stack must not hit caches: %+v", st)
	}
}

func TestResetStats(t *testing.T) {
	s := newStack(t, true)
	op := gemmOp(64)
	if _, err := s.RunLatency(&op); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	if st := s.Stats(); st != (engine.StackStats{}) {
		t.Fatalf("stats must reset: %+v", st)
	}
	// Caches survive a stats reset: the same shape hits both phases.
	if _, err := s.RunLatency(&op); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st != (engine.StackStats{CompileCalls: 1, CompileHits: 1, SimulateCalls: 1, SimulateHits: 1}) {
		t.Fatalf("caches must survive ResetStats: %+v", st)
	}
}

func TestHitRate(t *testing.T) {
	var st engine.StackStats
	if st.HitRate() != 0 {
		t.Fatal("empty stats hit rate must be 0")
	}
	st = engine.StackStats{CompileCalls: 2, CompileHits: 1, SimulateCalls: 2, SimulateHits: 1}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", st.HitRate())
	}
}

// TestConcurrentRun exercises the stack from many goroutines; run with
// -race to validate the locking.
func TestConcurrentRun(t *testing.T) {
	s := newStack(t, true)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				op := gemmOp(16 + (i+j)%4*16)
				if _, err := s.RunLatency(&op); err != nil {
					errs <- err
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := s.Stats(); st.SimulateCalls != 64 {
		t.Fatalf("simulate calls = %d", st.SimulateCalls)
	}
}

func TestKindString(t *testing.T) {
	if engine.NPU.String() != "npu" || engine.PIM.String() != "pim" || engine.GPU.String() != "gpu" {
		t.Fatal("kind strings")
	}
}
