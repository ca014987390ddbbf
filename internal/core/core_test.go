package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/network"
	"repro/internal/sched"
	"repro/internal/workload"
)

func topo(t *testing.T, mode network.Parallelism, n, g, pim int) network.Topology {
	t.Helper()
	tp, err := network.Build(mode, n, g, config.DefaultLink(), config.DefaultLink())
	if err != nil {
		t.Fatal(err)
	}
	tp.PIMPool = pim
	return tp
}

func baseOpts(t *testing.T) Options {
	return Options{
		Model: model.MustLookup("gpt2"),
		Topo:  topo(t, network.Tensor, 2, 0, 0),
		NPU:   config.DefaultNPU(),
		PIM:   config.DefaultPIM(),
		Reuse: ReuseAll(),
	}
}

func smallTrace(t *testing.T, n int) []workload.Request {
	t.Helper()
	reqs, err := workload.PoissonTrace(workload.Alpaca(), n, 50, 4)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func runOpts(t *testing.T, opts Options, reqs []workload.Request) *Report {
	t.Helper()
	sim, err := New(opts, reqs)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestRunCompletes(t *testing.T) {
	reqs := smallTrace(t, 6)
	rep := runOpts(t, baseOpts(t), reqs)
	if len(rep.Finished) != 6 {
		t.Fatalf("finished %d of 6", len(rep.Finished))
	}
	if rep.Iterations == 0 || rep.SimEnd <= 0 || rep.GenTPS <= 0 {
		t.Fatalf("degenerate report %+v", rep)
	}
	if rep.Latency.Count != 6 || rep.Latency.MeanSec <= 0 {
		t.Fatal("latency stats missing")
	}
}

// TestTokenConservation: generated tokens equal the trace's output tokens,
// prompt tokens equal the trace's input tokens.
func TestTokenConservation(t *testing.T) {
	reqs := smallTrace(t, 5)
	var wantPrompt, wantGen int64
	for _, r := range reqs {
		wantPrompt += int64(r.InputLen)
		wantGen += int64(r.OutputLen)
	}
	sim, err := New(baseOpts(t), reqs)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	gotPrompt := int64(rep.PromptTPS * rep.SimEnd.Seconds())
	gotGen := int64(rep.GenTPS * rep.SimEnd.Seconds())
	if !within(gotPrompt, wantPrompt, 2) {
		t.Fatalf("prompt tokens %d, want %d", gotPrompt, wantPrompt)
	}
	if !within(gotGen, wantGen, 2) {
		t.Fatalf("gen tokens %d, want %d", gotGen, wantGen)
	}
}

func within(a, b, tol int64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

// TestReuseEquivalence is the central correctness property of the paper's
// optimisation: enabling model-redundancy and computation reuse changes
// only the simulator's own speed, never the simulated results.
func TestReuseEquivalence(t *testing.T) {
	reqs := smallTrace(t, 4)

	with := baseOpts(t)
	with.Reuse = ReuseAll()
	repWith := runOpts(t, with, reqs)

	without := baseOpts(t)
	without.Reuse = ReuseNone()
	repWithout := runOpts(t, without, reqs)

	if repWith.SimEnd != repWithout.SimEnd {
		t.Fatalf("reuse changed simulated time: %v vs %v", repWith.SimEnd, repWithout.SimEnd)
	}
	if repWith.Iterations != repWithout.Iterations {
		t.Fatalf("reuse changed iteration count: %d vs %d", repWith.Iterations, repWithout.Iterations)
	}
	if repWith.GenTPS != repWithout.GenTPS {
		t.Fatalf("reuse changed throughput: %v vs %v", repWith.GenTPS, repWithout.GenTPS)
	}
	// And the no-reuse run must have done strictly more engine work.
	if repWithout.NPUStats.SimulateCalls <= repWith.NPUStats.SimulateCalls {
		t.Fatalf("no-reuse should simulate more ops: %d vs %d",
			repWithout.NPUStats.SimulateCalls, repWith.NPUStats.SimulateCalls)
	}
}

// TestReuseCacheEffective: across a multi-iteration run the cache hit rate
// must be high (most decode iterations repeat shapes).
func TestReuseCacheEffective(t *testing.T) {
	rep := runOpts(t, baseOpts(t), smallTrace(t, 6))
	if hr := rep.NPUStats.HitRate(); hr < 0.5 {
		t.Fatalf("cache hit rate %.2f too low", hr)
	}
}

func TestParallelismModes(t *testing.T) {
	reqs := smallTrace(t, 4)
	for _, tc := range []struct {
		name string
		topo network.Topology
	}{
		{"tp4", topo(t, network.Tensor, 4, 0, 0)},
		{"pp4", topo(t, network.Pipeline, 4, 0, 0)},
		{"hybrid2x2", topo(t, network.Hybrid, 4, 2, 0)},
	} {
		opts := baseOpts(t)
		opts.Topo = tc.topo
		rep := runOpts(t, opts, reqs)
		if len(rep.Finished) != 4 {
			t.Fatalf("%s: finished %d", tc.name, len(rep.Finished))
		}
	}
}

// TestTPReducesLatency: tensor parallelism must speed up a single large
// request's end-to-end latency relative to one device.
func TestTPReducesLatency(t *testing.T) {
	reqs := []workload.Request{{ID: 0, InputLen: 256, OutputLen: 16}}
	one := baseOpts(t)
	one.Model = model.MustLookup("gpt3-7b")
	one.Topo = topo(t, network.Tensor, 1, 0, 0)
	repOne := runOpts(t, one, reqs)

	four := baseOpts(t)
	four.Model = model.MustLookup("gpt3-7b")
	four.Topo = topo(t, network.Tensor, 4, 0, 0)
	repFour := runOpts(t, four, reqs)

	if repFour.SimEnd >= repOne.SimEnd {
		t.Fatalf("TP4 %v should beat TP1 %v", repFour.SimEnd, repOne.SimEnd)
	}
}

func TestPIMModes(t *testing.T) {
	reqs := smallTrace(t, 4)

	local := baseOpts(t)
	local.PIMMode = PIMLocal
	repLocal := runOpts(t, local, reqs)
	if repLocal.PIMStats.SimulateCalls == 0 {
		t.Fatal("PIM local must route attention to the PIM engine")
	}

	pool := baseOpts(t)
	pool.Topo = topo(t, network.Tensor, 2, 0, 2)
	pool.PIMMode = PIMPool
	repPool := runOpts(t, pool, reqs)
	if repPool.PIMStats.SimulateCalls == 0 {
		t.Fatal("PIM pool must route attention to the PIM engine")
	}

	// Sub-batch interleaving on the local configuration.
	sub := baseOpts(t)
	sub.PIMMode = PIMLocal
	sub.Sched.SubBatches = 2
	repSub := runOpts(t, sub, reqs)
	if len(repSub.Finished) != 4 {
		t.Fatal("sub-batched run incomplete")
	}
}

func TestSelectiveBatching(t *testing.T) {
	opts := baseOpts(t)
	opts.Topo = topo(t, network.Tensor, 4, 0, 0)
	opts.SelectiveBatching = true
	rep := runOpts(t, opts, smallTrace(t, 4))
	if len(rep.Finished) != 4 {
		t.Fatal("selective batching run incomplete")
	}
}

func TestOptionValidation(t *testing.T) {
	reqs := smallTrace(t, 2)

	bad := baseOpts(t)
	bad.PIMMode = PIMPool // no pool in topology
	if _, err := New(bad, reqs); err == nil {
		t.Fatal("pool mode without pool nodes must fail")
	}

	bad = baseOpts(t)
	bad.Sched.SubBatches = 2 // without PIM
	if _, err := New(bad, reqs); err == nil {
		t.Fatal("sub-batching without PIM must fail")
	}

	bad = baseOpts(t)
	bad.Model = model.MustLookup("gpt3-175b") // 350 GB on 2x24GB
	if _, err := New(bad, reqs); err == nil {
		t.Fatal("model exceeding memory must fail")
	}
}

func TestParsePIMMode(t *testing.T) {
	for s, want := range map[string]PIMMode{"none": PIMNone, "": PIMNone, "local": PIMLocal, "pool": PIMPool} {
		got, err := ParsePIMMode(s)
		if err != nil || got != want {
			t.Fatalf("ParsePIMMode(%q)", s)
		}
	}
	if _, err := ParsePIMMode("x"); err == nil {
		t.Fatal("unknown mode must fail")
	}
	if PIMLocal.String() != "local" || PIMPool.String() != "pool" || PIMNone.String() != "none" {
		t.Fatal("strings")
	}
}

// TestKVPolicyAblation: paged KV must sustain at least the throughput of
// max-length preallocation on a memory-constrained workload.
func TestKVPolicyAblation(t *testing.T) {
	reqs := smallTrace(t, 8)

	paged := baseOpts(t)
	paged.KVPolicy = kvcache.Paged
	repPaged := runOpts(t, paged, reqs)

	maxlen := baseOpts(t)
	maxlen.KVPolicy = kvcache.MaxLen
	repMaxlen := runOpts(t, maxlen, reqs)

	if repPaged.SimEnd > repMaxlen.SimEnd {
		t.Fatalf("paged KV (%v) should not be slower than maxlen (%v)",
			repPaged.SimEnd, repMaxlen.SimEnd)
	}
}

// TestHostTimeInstrumented: all four components must report host time.
func TestHostTimeInstrumented(t *testing.T) {
	rep := runOpts(t, baseOpts(t), smallTrace(t, 3))
	h := rep.Host
	if h.Scheduler <= 0 || h.ExecutionEngine <= 0 || h.GraphConverter <= 0 || h.AstraSim <= 0 {
		t.Fatalf("host times missing: %+v", h)
	}
}

// TestSchedulerIsWallLessBackend: a run of at most 64 steps is metered
// exactly, and its scheduler bucket is the steps' wall time less the
// backend's own phases.
func TestSchedulerIsWallLessBackend(t *testing.T) {
	rep := runOpts(t, baseOpts(t), workload.UniformBatch(4, 64, 16))
	if rep.Iterations >= 64 {
		t.Fatalf("%d iterations; the test needs a run of at most 64 steps", rep.Iterations)
	}
	backend := rep.Host.Total() - rep.Host.Scheduler
	if rep.Host.Scheduler <= 0 || rep.Host.Scheduler != rep.WallClock-backend {
		t.Fatalf("scheduler %v, want wall %v - backend %v = %v",
			rep.Host.Scheduler, rep.WallClock, backend, rep.WallClock-backend)
	}
}

// TestStepAllocs: a warm roofline decode Step allocates nothing, both
// when it is one of the timed steps and when it is not.
func TestStepAllocs(t *testing.T) {
	sim := decodeReplica(t, newDecodeBackend(t))
	step := func() {
		if done, err := sim.Step(); err != nil || done {
			t.Fatalf("done=%v err=%v", done, err)
		}
	}
	for i := 0; i < 255; i++ {
		step()
	}
	// AllocsPerRun(1, f) calls f once unmeasured (step 255, untimed),
	// then once measured: step 256, a timed one.
	if n := testing.AllocsPerRun(1, step); n != 0 {
		t.Errorf("timed step allocates %v times", n)
	}
	// Steps 257 (unmeasured) and 258, both untimed.
	if n := testing.AllocsPerRun(1, step); n != 0 {
		t.Errorf("untimed step allocates %v times", n)
	}
}

// TestSingleIterationExported exercises the single-iteration API used by
// the simulation-time experiments.
func TestSingleIterationExported(t *testing.T) {
	reqs := workload.UniformBatch(4, 64, 1)
	sim, err := New(baseOpts(t), reqs)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := schedNext(t, sim)
	if !ok {
		t.Fatal("no batch")
	}
	lat, err := sim.SimulateIteration(b)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Fatal("iteration latency must be positive")
	}
}

// schedNext pulls the first batch through the simulator's scheduler.
func schedNext(t *testing.T, s *Simulator) (*sched.Batch, bool) {
	t.Helper()
	return s.scheduler.Next()
}

// (groupSeqs moved with the engine pipeline into internal/perfmodel/astra;
// its test lives there now.)
