package cluster

// Scale benchmarks for the cluster hot path: many requests over many
// replicas, the regime where per-arrival work (advance-to-arrival event
// stepping, routing snapshots) and per-iteration scheduler work must
// stay near-constant for the simulation to scale. These are the
// benchmarks tracked in BENCH_hotpath.json and guarded by the CI
// benchmark-regression job (cmd/benchdiff).

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/workload"

	"repro/internal/config"
)

// flatEngine is a constant-latency execution engine stub. The scale
// benchmarks measure the simulator's own hot paths (scheduler, KV
// manager, cluster stepper, graph/system simulation plumbing), so the
// accelerator model is reduced to a fixed per-operator latency.
type flatEngine struct{ mem int64 }

type flatCompiled struct{}

func (e flatEngine) Name() string      { return "flat" }
func (e flatEngine) Kind() engine.Kind { return engine.NPU }
func (e flatEngine) Compile(op model.Op) (engine.Compiled, error) {
	return flatCompiled{}, nil
}
func (e flatEngine) Simulate(c engine.Compiled) (simtime.Duration, error) {
	return 50 * simtime.Microsecond, nil
}
func (e flatEngine) MemoryBytes() int64 { return e.mem }

// scaleReplicaFactory builds 2-NPU gpt2 replicas on the flat engine.
// Per-device memory leaves a KV budget tight enough that saturated
// replicas exercise the admission/eviction/reload machinery. A non-nil
// recorder is attached to every replica (BenchmarkClusterTelemetry).
func scaleReplicaFactoryObs(b testing.TB, rec *obs.Recorder) func(int, Role) (*core.Simulator, error) {
	b.Helper()
	topo, err := network.Build(network.Tensor, 2, 1, config.DefaultLink(), config.DefaultLink())
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{
		Model:         model.MustLookup("gpt2"),
		Topo:          topo,
		EngineFactory: func() (engine.Engine, error) { return flatEngine{mem: 200 << 20}, nil },
		KVPolicy:      kvcache.Paged,
		Reuse:         core.ReuseAll(),
	}
	return func(i int, _ Role) (*core.Simulator, error) {
		opts := opts
		opts.Obs = rec
		opts.ObsReplica = i
		return core.New(opts, nil)
	}
}

func scaleReplicaFactory(b testing.TB) func(int, Role) (*core.Simulator, error) {
	return scaleReplicaFactoryObs(b, nil)
}

// scaleClasses is a high-rate two-class mix of short requests; total
// arrival rate far exceeds replica service capacity, so the cluster
// runs saturated and queues build at every replica.
func scaleClasses() []workload.Class {
	return []workload.Class{
		{Name: "short", Dist: workload.Fixed(64, 16), Rate: 600},
		{Name: "long", Dist: workload.Fixed(256, 48), Rate: 200},
	}
}

func scaleTrace(b testing.TB, n int, ramp workload.Ramp) []workload.Request {
	b.Helper()
	reqs, err := workload.MultiClassTrace(scaleClasses(), n, ramp, 42)
	if err != nil {
		b.Fatal(err)
	}
	return reqs
}

func runScaleCluster(b *testing.B, replicas, n int, ramp workload.Ramp) {
	b.Helper()
	trace := scaleTrace(b, n, ramp)
	factory := scaleReplicaFactory(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewRouter(RouterLeastLoad)
		if err != nil {
			b.Fatal(err)
		}
		c, err := New(Config{
			Replicas:   replicas,
			NewReplica: factory,
			Router:     r,
			Classes:    scaleClasses(),
		})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := c.Run(trace)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Admitted != n {
			b.Fatalf("admitted %d of %d", rep.Admitted, n)
		}
	}
}

// BenchmarkClusterScale sweeps replica count and trace size through the
// saturated regime. The large-cluster cases are the ISSUE 3 acceptance
// benchmark (>= 10k requests, >= 16 replicas).
func BenchmarkClusterScale(b *testing.B) {
	cases := []struct{ replicas, n int }{
		{1, 2000},
		{4, 10000},
		{16, 10000},
		{64, 10000},
	}
	for _, c := range cases {
		b.Run(fmt.Sprintf("replicas=%d/reqs=%d", c.replicas, c.n), func(b *testing.B) {
			runScaleCluster(b, c.replicas, c.n, workload.Ramp{})
		})
	}
}

// BenchmarkClusterSaturationRamp sweeps arrival rate from half to 4x
// the base rate over the trace, walking the cluster from under- to
// over-load in one run.
func BenchmarkClusterSaturationRamp(b *testing.B) {
	runScaleCluster(b, 16, 10000, workload.Ramp{From: 0.5, To: 4})
}

// BenchmarkClusterDisagg runs the saturated trace through a
// disaggregated fleet — half the slots prefill-only, half
// generation-only decode — measuring the two-stage routing path and the
// per-handoff KV transfer pricing on top of the unified baseline
// (BenchmarkClusterScale at the same slot count).
func BenchmarkClusterDisagg(b *testing.B) {
	const replicas, n = 16, 10000
	roles := make([]Role, replicas)
	for i := replicas / 2; i < replicas; i++ {
		roles[i] = RoleDecode
	}
	for i := 0; i < replicas/2; i++ {
		roles[i] = RolePrefill
	}
	unified := scaleReplicaFactory(b)
	factory := func(i int, role Role) (*core.Simulator, error) {
		if role != RoleDecode {
			return unified(i, role)
		}
		topo, err := network.Build(network.Tensor, 2, 1, config.DefaultLink(), config.DefaultLink())
		if err != nil {
			return nil, err
		}
		return core.New(core.Options{
			Model:         model.MustLookup("gpt2"),
			Topo:          topo,
			EngineFactory: func() (engine.Engine, error) { return flatEngine{mem: 200 << 20}, nil },
			KVPolicy:      kvcache.Paged,
			Reuse:         core.ReuseAll(),
			Sched:         sched.Config{SkipPrefill: true},
		}, nil)
	}
	trace := scaleTrace(b, n, workload.Ramp{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		router, err := NewRouter(RouterLeastLoad)
		if err != nil {
			b.Fatal(err)
		}
		decodeRouter, err := NewRouter(RouterLeastLoad)
		if err != nil {
			b.Fatal(err)
		}
		c, err := New(Config{
			Replicas:     replicas,
			Roles:        roles,
			NewReplica:   factory,
			Router:       router,
			DecodeRouter: decodeRouter,
			Classes:      scaleClasses(),
		})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := c.Run(trace)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Admitted != n {
			b.Fatalf("admitted %d of %d", rep.Admitted, n)
		}
		if rep.HandoffCount != n {
			b.Fatalf("handoffs %d of %d", rep.HandoffCount, n)
		}
	}
}

// BenchmarkClusterTelemetry measures the overhead of the obs recorder
// on the 16-replica saturated cluster: detail=off is the same run with
// no recorder attached (the baseline every other hot-path benchmark
// sees), detail=spans is the default capture level, detail=full adds
// iteration events and top-k routing counterfactuals. The off/full gap
// is the telemetry tax guarded by the CI benchmark-regression job.
func BenchmarkClusterTelemetry(b *testing.B) {
	const replicas, n = 16, 10000
	details := []struct {
		name   string
		detail obs.Detail // 0 means no recorder at all
	}{
		{"off", 0},
		{"spans", obs.DetailSpans},
		{"full", obs.DetailFull},
	}
	for _, d := range details {
		b.Run("detail="+d.name, func(b *testing.B) {
			trace := scaleTrace(b, n, workload.Ramp{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var rec *obs.Recorder
				if d.detail != 0 {
					rec = obs.New(obs.Config{Detail: d.detail})
				}
				r, err := NewRouter(RouterLeastLoad)
				if err != nil {
					b.Fatal(err)
				}
				c, err := New(Config{
					Replicas:   replicas,
					NewReplica: scaleReplicaFactoryObs(b, rec),
					Router:     r,
					Classes:    scaleClasses(),
					Obs:        rec,
				})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := c.Run(trace)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Admitted != n {
					b.Fatalf("admitted %d of %d", rep.Admitted, n)
				}
			}
		})
	}
}
