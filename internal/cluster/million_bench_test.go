package cluster

// Million-request benchmarks: the streaming engine end to end — pull
// arrivals from a generator, stream per-request metrics into the
// sketch accumulators, never materialize the trace or the record
// table. BenchmarkMillionRequest is the ISSUE 9 acceptance benchmark
// (1M requests over 256 roofline replicas; per-request allocations
// must stay flat between the 100k and 1M runs). BenchmarkShardedCluster
// measures the epoch-barrier sharded loop against the same run on one
// shard. Both are tracked in BENCH_hotpath.json and guarded by the CI
// benchmark-regression job (cmd/benchdiff).

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/workload"
)

// millionClasses scales the saturated two-class mix up 4x so the
// 256-replica fleet sees meaningful load: 3200 req/s total, putting
// one million requests inside ~312 simulated seconds.
func millionClasses() []workload.Class {
	cls := scaleClasses()
	for i := range cls {
		cls[i].Rate *= 4
	}
	return cls
}

func runStreamCluster(b *testing.B, backend string, replicas, n, shards int, classes []workload.Class) {
	b.Helper()
	factory := backendReplicaFactory(b, backend)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewRouter(RouterLeastLoad)
		if err != nil {
			b.Fatal(err)
		}
		c, err := New(Config{
			Replicas:      replicas,
			NewReplica:    factory,
			Router:        r,
			Classes:       classes,
			StreamMetrics: true,
			Shards:        shards,
		})
		if err != nil {
			b.Fatal(err)
		}
		s, err := workload.NewMultiClassStream(classes, n, workload.Ramp{}, 42)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := c.RunStream(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Requests != n {
			b.Fatalf("saw %d of %d requests", rep.Requests, n)
		}
	}
}

// BenchmarkMillionRequest is the scaling acceptance benchmark:
// streaming arrivals and streaming metrics over a 256-replica roofline
// fleet. The 100k sub-benchmark is the flatness reference — allocs/op
// and B/op must grow ~10x between the runs (i.e. stay constant per
// request), or the streaming path has regrown a per-run term.
func BenchmarkMillionRequest(b *testing.B) {
	const replicas = 256
	for _, n := range []int{100000, 1000000} {
		b.Run(fmt.Sprintf("replicas=%d/reqs=%d", replicas, n), func(b *testing.B) {
			runStreamCluster(b, "roofline", replicas, n, 0, millionClasses())
		})
	}
}

// sessionBenchSpecs drive the client/session layer at scale: a large
// heavy-tailed population holding ~4-turn conversations over two
// prefix-carrying classes, saturating the fleet like millionClasses.
func sessionBenchClasses() []workload.Class {
	return []workload.Class{
		{Name: "chat", Dist: workload.Fixed(96, 32), Rate: 1200, PrefixLen: 64},
		{Name: "api", Dist: workload.Fixed(48, 16), Rate: 400, PrefixLen: 32},
	}
}

// BenchmarkSessionStream measures the session workload path end to
// end: the population generator (heap of per-client arrival processes,
// diurnal/burst modulation, per-conversation context growth) pulled
// through the streaming engine with session metrics accumulating in
// the per-request sketches. 100k session requests over 64 roofline
// replicas under prefix-affinity routing, so per-conversation prefix
// keys exercise the router's cache probes as well. Tracked in
// BENCH_hotpath.json like the other scale benchmarks.
func BenchmarkSessionStream(b *testing.B) {
	const (
		replicas = 64
		n        = 100000
	)
	classes := sessionBenchClasses()
	pop := workload.Population{
		Clients: 2000, RateDist: "zipf", Skew: 1.1,
		DiurnalAmp: 0.3, DiurnalPeriod: 600,
		BurstFactor: 3, BurstFrac: 0.1, BurstMean: 30,
	}
	sess := workload.SessionSpec{MeanTurns: 4, ThinkMean: 5, ThinkSigma: 0.6, MaxContext: 512}
	factory := backendReplicaFactory(b, "roofline")
	b.Run(fmt.Sprintf("replicas=%d/reqs=%d", replicas, n), func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := NewRouter(RouterPrefixAffinity)
			if err != nil {
				b.Fatal(err)
			}
			c, err := New(Config{
				Replicas:      replicas,
				NewReplica:    factory,
				Router:        r,
				Classes:       classes,
				StreamMetrics: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			s, err := workload.NewPopulationStream(classes, pop, sess, n, 42)
			if err != nil {
				b.Fatal(err)
			}
			rep, err := c.RunStream(context.Background(), s)
			if err != nil {
				b.Fatal(err)
			}
			if rep.Requests != n {
				b.Fatalf("saw %d of %d requests", rep.Requests, n)
			}
			if rep.Sessions == nil || rep.Sessions.Sessions == 0 {
				b.Fatal("streaming run produced no session summary")
			}
		}
	})
}

// BenchmarkShardedCluster tracks the coordination cost of the
// epoch-barrier sharded loop: the same saturated 16-replica roofline
// run at 1, 2, and 8 shards. shards=1 takes the sequential path, so
// the spread across sub-benchmarks is the sharding overhead (epoch
// barriers, worker wake-ups) minus whatever the parallel stepping
// saves. On this cheap roofline run the overhead wins: the 2-vCPU
// baseline in BENCH_hotpath.json records 279 ms at shards=1, 408 ms at
// shards=2 and 375 ms at shards=8. cmd/benchdiff compares each
// sub-benchmark only with its own previous value, so this guards each
// shard count against getting slower; nothing bounds the spread
// between shard counts. Wall-clock speedup from sharding needs a
// multi-core host and a step-dominated backend (astra), neither of
// which CI guarantees.
func BenchmarkShardedCluster(b *testing.B) {
	const (
		replicas = 16
		n        = 20000
	)
	for _, shards := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("replicas=%d/reqs=%d/shards=%d", replicas, n, shards), func(b *testing.B) {
			runStreamCluster(b, "roofline", replicas, n, shards, scaleClasses())
		})
	}
}
