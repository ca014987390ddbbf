package cluster

// Million-request benchmarks: the streaming engine end to end — pull
// arrivals from a generator, stream per-request metrics into the
// sketch accumulators, never materialize the trace or the record
// table. BenchmarkMillionRequest is the ISSUE 9 acceptance benchmark
// (1M requests over 256 roofline replicas; per-request allocations
// must stay flat between the 100k and 1M runs). It is tracked in
// BENCH_hotpath.json and guarded by the CI benchmark-regression job
// (cmd/benchdiff).

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

func runStreamCluster(b *testing.B, backend string, replicas, n int, classes []workload.Class) {
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
// request), or the streaming path has regrown a per-run term. The
// 1024-replica run is the width reference: the same 100k arrivals over
// 4x the fleet must cost about the same per request, or per-arrival
// work has regrown a term in fleet width.
func BenchmarkMillionRequest(b *testing.B) {
	for _, tc := range []struct{ replicas, n int }{
		{256, 100000},
		{256, 1000000},
		{1024, 100000},
	} {
		b.Run(fmt.Sprintf("replicas=%d/reqs=%d", tc.replicas, tc.n), func(b *testing.B) {
			runStreamCluster(b, "roofline", tc.replicas, tc.n, millionClasses())
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
