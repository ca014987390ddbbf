package cluster

import (
	"testing"
)

// BenchmarkClusterRun measures the cluster hot path end to end: the
// advance-to-arrival event loop, routing snapshots, and the record
// pipeline, over 4 replicas and a 60-request mixed trace.
func BenchmarkClusterRun(b *testing.B) {
	for _, router := range []string{RouterRoundRobin, RouterLeastLoad, RouterAffinity} {
		b.Run(router, func(b *testing.B) {
			trace := testTrace(b, 60)
			factory := newReplicaFactory(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, _ := NewRouter(router)
				c, err := New(Config{
					Replicas:   4,
					NewReplica: factory,
					Router:     r,
					Classes:    testClasses(),
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.Run(trace); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRouterRoute isolates the per-arrival routing decision.
func BenchmarkRouterRoute(b *testing.B) {
	states := make([]ReplicaState, 16)
	for i := range states {
		states[i] = ReplicaState{Index: i, QueuedTokens: int64(1000 - i*7), QueuedRequests: 16 - i}
	}
	reqs := testTrace(b, 64)
	for _, name := range Routers() {
		b.Run(name, func(b *testing.B) {
			r, err := NewRouter(name)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				idx := r.Route(reqs[i%len(reqs)], states)
				if idx < 0 || idx >= len(states) {
					b.Fatal("out of range")
				}
			}
		})
	}
}

// BenchmarkRouterPick times the least-loaded pick at fleet width: a scan
// of 256 replica states per arrival, the routing cost fleet256 pays.
// Each pick charges the request's tokens to the chosen replica, as the
// cluster's routing view does, so successive picks land on different
// replicas. One op is picksPerOp picks, so ns/op divided by 1000 is one
// pick and CI's -benchtime=1x measures the scan, not the timer.
func BenchmarkRouterPick(b *testing.B) {
	const width, picksPerOp = 256, 1000
	states := make([]ReplicaState, width)
	for i := range states {
		states[i] = ReplicaState{Index: i, QueuedTokens: int64((i * 7919) % 4096)}
	}
	reqs := testTrace(b, 64)
	r, err := NewRouter(RouterLeastLoad)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		for k := range picksPerOp {
			req := reqs[(i+k)%len(reqs)]
			idx := r.Route(req, states)
			states[idx].QueuedTokens += int64(req.TotalLen())
		}
	}
}
